exception Runtime_error of string * Srcloc.t

type result = { output : string; return_value : int; steps : int }

(* One activation record.  [callsite] is the code address of the call
   expression that created the frame (for [main], the function entry),
   which is exactly what a return-address walk would surface. *)
type scope = (string * int ref) list ref

type frame = {
  func : Ast.func;
  callsite : int;
  sp : int; (* stack pointer after this frame was pushed *)
  mutable scopes : scope list;
}

type outcome = Normal | Returned of int | Broke | Continued

let stack_base = 0x7FFF_0000
let statement_cost = 2

type st = {
  m : Machine.t;
  tool : Tool.t;
  program : Program.t;
  inputs : int array;
  app_rng : Prng.t;
  buf : Buffer.t;
  mutable frames : frame list; (* innermost first *)
  ctx : Alloc_ctx.t; (* the run's one handle, re-pointed per malloc *)
  mutable steps : int;
  step_limit : int;
}

let error loc fmt = Printf.ksprintf (fun msg -> raise (Runtime_error (msg, loc))) fmt

let frame st = List.hd st.frames

let lookup st loc name =
  let rec go = function
    | [] -> error loc "variable '%s' not found at runtime" name
    | scope :: rest -> (
      match List.assoc_opt name !scope with Some r -> r | None -> go rest)
  in
  go (frame st).scopes

(* Duplicate declarations are rejected statically by Sema, so declaration
   is a plain cons. *)
let declare st _loc name v =
  let scope = List.hd (frame st).scopes in
  scope := (name, ref v) :: !scope

let push_scope st = (frame st).scopes <- ref [] :: (frame st).scopes
let pop_scope st = (frame st).scopes <- List.tl (frame st).scopes

(* The full calling context, innermost first, appended to [c]: [pc],
   then the call site of every live frame from innermost to outermost.
   The run's one frame walker, for the handle's writer and the machine's
   backtrace provider alike. *)
let write_frames st pc c =
  Alloc_ctx.push c pc;
  List.iter (fun f -> Alloc_ctx.push c f.callsite) st.frames

(* The tool uses the handle only inside [malloc], while [st.frames] are
   the frames live at the call, so the run's one handle serves every
   allocation. *)
let make_ctx st (call_expr : Ast.expr) =
  Alloc_ctx.point st.ctx ~callsite:call_expr.eaddr
    ~stack_offset:(stack_base - (frame st).sp);
  st.ctx

let truthy v = v <> 0
let of_bool b = if b then 1 else 0

let access_kind_read = Tool.Read
let access_kind_write = Tool.Write

let word_access st (e : Ast.expr) addr kind =
  if addr < 0 then error e.eloc "invalid address %d" addr;
  Machine.set_pc st.m e.eaddr;
  st.tool.Tool.on_access ~addr ~len:8 ~kind ~site:e.eaddr;
  match kind with
  | Tool.Read -> Machine.load_word st.m addr
  | Tool.Write -> assert false

let word_store st (stmt : Ast.stmt) addr v =
  if addr < 0 then error stmt.sloc "invalid address %d" addr;
  Machine.set_pc st.m stmt.saddr;
  st.tool.Tool.on_access ~addr ~len:8 ~kind:access_kind_write ~site:stmt.saddr;
  Machine.store_word st.m addr v

let byte_access st loc site addr kind v =
  if addr < 0 then error loc "invalid address %d" addr;
  Machine.set_pc st.m site;
  st.tool.Tool.on_access ~addr ~len:1 ~kind ~site;
  match kind with
  | Tool.Read -> Machine.load_byte st.m addr
  | Tool.Write ->
    Machine.store_byte st.m addr v;
    0

let render_print_arg (e : Ast.expr) eval =
  match e.Ast.e with Ast.Str s -> s | _ -> string_of_int (eval e)

let rec eval st (e : Ast.expr) : int =
  match e.e with
  | Int n -> n
  | Str _ -> error e.eloc "string literal used as a value"
  | Var x -> !(lookup st e.eloc x)
  | Unop (Neg, a) -> -eval st a
  | Unop (Not, a) -> of_bool (not (truthy (eval st a)))
  | Binop (LAnd, a, b) -> if truthy (eval st a) then of_bool (truthy (eval st b)) else 0
  | Binop (LOr, a, b) -> if truthy (eval st a) then 1 else of_bool (truthy (eval st b))
  | Binop (op, a, b) -> (
    let va = eval st a in
    let vb = eval st b in
    match op with
    | Add -> va + vb
    | Sub -> va - vb
    | Mul -> va * vb
    | Div -> if vb = 0 then error e.eloc "division by zero" else va / vb
    | Mod -> if vb = 0 then error e.eloc "modulo by zero" else va mod vb
    | Lt -> of_bool (va < vb)
    | Le -> of_bool (va <= vb)
    | Gt -> of_bool (va > vb)
    | Ge -> of_bool (va >= vb)
    | Eq -> of_bool (va = vb)
    | Ne -> of_bool (va <> vb)
    | BAnd -> va land vb
    | BOr -> va lor vb
    | BXor -> va lxor vb
    | Shl -> va lsl (vb land 62)
    | Shr -> va lsr (vb land 62)
    | LAnd | LOr -> assert false)
  | Index (p, i) ->
    let base = eval st p in
    let idx = eval st i in
    word_access st e (base + (8 * idx)) access_kind_read
  | Call (name, args) -> call st e name args

and call st (e : Ast.expr) name args =
  match name with
  | "malloc" ->
    let size = eval st (List.nth args 0) in
    if size < 0 then error e.eloc "malloc of negative size %d" size;
    Machine.set_pc st.m e.eaddr;
    st.tool.Tool.malloc ~size ~ctx:(make_ctx st e)
  | "calloc" ->
    let count = eval st (List.nth args 0) in
    let size = eval st (List.nth args 1) in
    if count < 0 || size < 0 then error e.eloc "calloc with negative argument";
    if size > 0 && count > max_int / size then
      error e.eloc "calloc of %d * %d bytes overflows" count size;
    let total = count * size in
    Machine.set_pc st.m e.eaddr;
    let p = st.tool.Tool.malloc ~size:total ~ctx:(make_ctx st e) in
    (* zeroing is in-bounds by definition; modeled as one bulk operation *)
    Sparse_mem.fill (Machine.mem st.m) p total 0;
    Machine.work st.m total;
    p
  | "free" ->
    let ptr = eval st (List.nth args 0) in
    Machine.set_pc st.m e.eaddr;
    st.tool.Tool.free ~ptr;
    0
  | "print" ->
    let parts = List.map (fun a -> render_print_arg a (eval st)) args in
    Buffer.add_string st.buf (String.concat " " parts);
    Buffer.add_char st.buf '\n';
    0
  | "input" ->
    let i = eval st (List.nth args 0) in
    if i < 0 || i >= Array.length st.inputs then
      error e.eloc "input index %d out of range (have %d)" i (Array.length st.inputs);
    st.inputs.(i)
  | "input_len" -> Array.length st.inputs
  | "rand" ->
    let n = eval st (List.nth args 0) in
    if n <= 0 then error e.eloc "rand bound must be positive" else Prng.int st.app_rng n
  | "memset" ->
    let p = eval st (List.nth args 0) in
    let v = eval st (List.nth args 1) in
    let n = eval st (List.nth args 2) in
    if n < 0 then error e.eloc "memset with negative length";
    for i = 0 to n - 1 do
      ignore (byte_access st e.eloc e.eaddr (p + i) access_kind_write (v land 0xff))
    done;
    0
  | "memcpy" ->
    let d = eval st (List.nth args 0) in
    let s = eval st (List.nth args 1) in
    let n = eval st (List.nth args 2) in
    if n < 0 then error e.eloc "memcpy with negative length";
    for i = 0 to n - 1 do
      let b = byte_access st e.eloc e.eaddr (s + i) access_kind_read 0 in
      ignore (byte_access st e.eloc e.eaddr (d + i) access_kind_write b)
    done;
    0
  | "load8" ->
    let p = eval st (List.nth args 0) in
    let off = eval st (List.nth args 1) in
    byte_access st e.eloc e.eaddr (p + off) access_kind_read 0
  | "store8" ->
    let p = eval st (List.nth args 0) in
    let off = eval st (List.nth args 1) in
    let v = eval st (List.nth args 2) in
    ignore (byte_access st e.eloc e.eaddr (p + off) access_kind_write (v land 0xff));
    0
  | "sleep_ms" ->
    let ms = eval st (List.nth args 0) in
    if ms < 0 then error e.eloc "sleep_ms with negative duration";
    Machine.work st.m (ms * (Cost.cycles_per_second / 1000));
    0
  | "work" ->
    let n = eval st (List.nth args 0) in
    if n < 0 then error e.eloc "work with negative cycles";
    Machine.work st.m n;
    0
  | "spawn" -> (
    match args with
    | { Ast.e = Ast.Str target; _ } :: rest ->
      let vals = List.map (eval st) rest in
      let threads = Machine.threads st.m in
      let parent = Threads.current threads in
      let tid = Threads.spawn threads ~name:target in
      Threads.set_current threads tid;
      let r =
        Fun.protect
          ~finally:(fun () ->
            Threads.exit_thread threads tid;
            Threads.set_current threads parent)
          (fun () -> call_function st e.eaddr target vals)
      in
      r
    | _ -> error e.eloc "spawn requires a function-name string")
  | _ ->
    let vals = List.map (eval st) args in
    call_function st e.eaddr name vals

and call_function st callsite name vals =
  let f =
    match Program.func st.program name with
    | Some f -> f
    | None -> error Srcloc.dummy "undefined function '%s'" name
  in
  let parent_sp = match st.frames with [] -> stack_base | fr :: _ -> fr.sp in
  let scope = ref (List.rev_map2 (fun p v -> (p, ref v)) f.params vals) in
  let fr =
    { func = f;
      callsite;
      sp = parent_sp - Program.frame_size st.program name;
      scopes = [ scope ] }
  in
  st.frames <- fr :: st.frames;
  let result =
    match exec_block st f.body with
    | Returned v -> v
    | Normal -> 0
    | Broke | Continued -> assert false
  in
  st.frames <- List.tl st.frames;
  result

and exec_block st stmts =
  push_scope st;
  let rec go = function
    | [] -> Normal
    | s :: rest -> (
      match exec_stmt st s with Normal -> go rest | other -> other)
  in
  let out = go stmts in
  pop_scope st;
  out

and exec_stmt st (stmt : Ast.stmt) : outcome =
  st.steps <- st.steps + 1;
  if st.steps > st.step_limit then
    error stmt.sloc "step limit exceeded (%d statements)" st.step_limit;
  Machine.set_pc st.m stmt.saddr;
  Machine.work st.m statement_cost;
  match stmt.s with
  | Decl (x, e) ->
    let v = eval st e in
    declare st stmt.sloc x v;
    Normal
  | Assign (x, e) ->
    let v = eval st e in
    lookup st stmt.sloc x := v;
    Normal
  | Store (p, i, e) ->
    let base = eval st p in
    let idx = eval st i in
    let v = eval st e in
    word_store st stmt (base + (8 * idx)) v;
    Normal
  | If (c, b1, b2) -> if truthy (eval st c) then exec_block st b1 else exec_block st b2
  | While (c, body) ->
    let rec loop () =
      if truthy (eval st c) then
        match exec_block st body with
        | Normal | Continued -> loop ()
        | Broke -> Normal
        | Returned _ as r -> r
      else Normal
    in
    loop ()
  | For (init, cond, step, body) ->
    push_scope st;
    let out =
      match exec_stmt st init with
      | Returned _ as r -> r
      | Broke | Continued -> assert false
      | Normal ->
        let rec loop () =
          if truthy (eval st cond) then
            let body_out = exec_block st body in
            match body_out with
            | Normal | Continued -> (
              match exec_stmt st step with
              | Normal -> loop ()
              | Returned _ as r -> r
              | Broke | Continued -> assert false)
            | Broke -> Normal
            | Returned _ as r -> r
          else Normal
        in
        loop ()
    in
    pop_scope st;
    out
  | Return None -> Returned 0
  | Return (Some e) -> Returned (eval st e)
  | Break -> Broke
  | Continue -> Continued
  | Expr e ->
    ignore (eval st e);
    Normal

let run ~machine ~tool ~program ?(inputs = [||]) ?(app_seed = 1) ?(step_limit = 50_000_000)
    () =
  let main =
    match Program.func program "main" with
    | Some f -> f
    | None -> failwith "Interp.run: program has no main (did Sema run?)"
  in
  let rec st =
    { m = machine;
      tool;
      program;
      inputs;
      app_rng = Prng.create ~seed:app_seed;
      buf = Buffer.create 256;
      frames = [];
      ctx;
      steps = 0;
      step_limit }
  and ctx =
    { Alloc_ctx.callsite = 0;
      stack_offset = 0;
      write =
        (fun c ->
          Machine.work machine Cost.backtrace_full;
          write_frames st ctx.Alloc_ctx.callsite c) }
  in
  Machine.set_backtrace_provider machine (fun () ->
      let c = Alloc_ctx.chain 16 in
      write_frames st (Machine.pc machine) c;
      Alloc_ctx.to_list c ~off:0 ~len:c.Alloc_ctx.len);
  let rv = call_function st main.faddr "main" [] in
  { output = Buffer.contents st.buf; return_value = rv; steps = st.steps }
