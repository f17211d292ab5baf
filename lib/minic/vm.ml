(* Bytecode VM.  Executes Compile.code against the same Machine/Tool
   surface as the AST interpreter, replaying its observable behaviour
   bit-identically: the same set_pc sites, the same Machine.work charges,
   the same tool malloc/free/on_access sequence (with identical
   Alloc_ctx contents), the same app-PRNG draws, the same error messages
   at the same source locations, and the same step accounting.  The
   interpreter (lib/minic/interp.ml) is the reference; any observable
   divergence is a VM bug — the differential sweep in test/test_prop.ml
   exists to find exactly that.

   The dispatch loop is a tail-recursive match over the instruction
   array.  Operand-stack capacity is verified once per frame push
   against the callee's statically computed [fi_max_stack], so the
   per-instruction stack operations are unchecked array accesses. *)

(* Frame [k] occupies words [frame_words * k] onward of [st.frames]:
   the call site (code address of the call expression), the simulated
   stack pointer, the instruction index to resume (-1 at a host
   boundary), the caller's locals window base and the number of
   activations the frame stands for: one, or a descent's levels
   ({!descend}).  Frame 0 is the outermost. *)
let frame_words = 5

type st = {
  m : Machine.t;
  tool : Tool.t;
  code : Compile.code;
  inputs : int array;
  app_rng : Prng.t;
  buf : Buffer.t;
  buggy : bool;      (* the planted bug: see [run]'s [buggy_cycles] *)
  mutable frames : int array;   (* [nframes] frames of [frame_words] *)
  mutable nframes : int;
  ctx : Alloc_ctx.t;            (* the run's one handle, re-pointed per malloc *)
  mutable steps : int;
  step_limit : int;
  mutable stack : int array;    (* operand stack *)
  mutable sp : int;
  mutable locals : int array;   (* per-frame slot windows, bump-allocated *)
  mutable lbase : int;
  mutable ltop : int;
}

let error loc fmt =
  Printf.ksprintf (fun msg -> raise (Interp.Runtime_error (msg, loc))) fmt

let stack_base = Interp.stack_base
let statement_cost = Interp.statement_cost

(* The run's one frame walker: [pc], then the call sites of the live
   activations, innermost first, appended to [c].  It serves the handle's
   writer and the machine's backtrace provider alike. *)
let write_frames st pc c =
  Alloc_ctx.push c pc;
  for k = st.nframes - 1 downto 0 do
    let o = frame_words * k in
    Alloc_ctx.push_n c (Array.unsafe_get st.frames o) (Array.unsafe_get st.frames (o + 4))
  done

let top_vsp st = Array.unsafe_get st.frames ((frame_words * (st.nframes - 1)) + 1)

(* The tool uses the handle only inside [malloc], so the run's one
   handle, re-pointed here, serves every allocation; its writer reads the
   live frames and the call site at the call. *)
let make_ctx st site =
  Alloc_ctx.point st.ctx ~callsite:site ~stack_offset:(stack_base - top_vsp st);
  st.ctx

let of_bool b = if b then 1 else 0

(* semantics of the fused-operator tags; must agree with the unfused
   opcodes (and Compile.eval_tag's constant folding) bit-for-bit *)
let[@inline] binop tag a b =
  match (tag : Compile.binop_tag) with
  | Compile.TAdd -> a + b
  | Compile.TSub -> a - b
  | Compile.TMul -> a * b
  | Compile.TLt -> of_bool (a < b)
  | Compile.TLe -> of_bool (a <= b)
  | Compile.TGt -> of_bool (a > b)
  | Compile.TGe -> of_bool (a >= b)
  | Compile.TEq -> of_bool (a = b)
  | Compile.TNe -> of_bool (a <> b)
  | Compile.TBand -> a land b
  | Compile.TBor -> a lor b
  | Compile.TBxor -> a lxor b
  | Compile.TShl -> a lsl (b land 62)
  | Compile.TShr -> a lsr (b land 62)

let grow_stack st needed =
  let cap = ref (2 * Array.length st.stack) in
  while needed > !cap do cap := 2 * !cap done;
  let arr = Array.make !cap 0 in
  Array.blit st.stack 0 arr 0 st.sp;
  st.stack <- arr

let grow_locals st needed =
  let cap = ref (2 * Array.length st.locals) in
  while needed > !cap do cap := 2 * !cap done;
  let arr = Array.make !cap 0 in
  Array.blit st.locals 0 arr 0 st.ltop;
  st.locals <- arr

let grow_frames st =
  let arr = Array.make (2 * Array.length st.frames) 0 in
  Array.blit st.frames 0 arr 0 (frame_words * st.nframes);
  st.frames <- arr

(* Open frame [st.nframes], standing for [count] activations, with a
   locals window of [nslots] words above [ltop]. *)
let[@inline] open_frame st ~callsite ~vsp ~ret_pc ~count nslots =
  let n = st.nframes and base = st.ltop in
  if base + nslots > Array.length st.locals then grow_locals st (base + nslots);
  if frame_words * (n + 1) > Array.length st.frames then grow_frames st;
  let frames = st.frames and o = frame_words * n in
  Array.unsafe_set frames o callsite;
  Array.unsafe_set frames (o + 1) vsp;
  Array.unsafe_set frames (o + 2) ret_pc;
  Array.unsafe_set frames (o + 3) st.lbase;
  Array.unsafe_set frames (o + 4) count;
  st.nframes <- n + 1;
  st.lbase <- base;
  st.ltop <- base + nslots

(* Push a frame for [f]: pop its arguments (pushed left-to-right) into
   slots 0..nargs-1 and guarantee operand-stack headroom for the whole of
   [f]'s own code — nested calls re-check at their own push. *)
let push_frame st (f : Compile.func_info) ~callsite ~ret_pc =
  let parent_sp = if st.nframes = 0 then stack_base else top_vsp st in
  if st.sp + f.Compile.fi_max_stack > Array.length st.stack then
    grow_stack st (st.sp + f.Compile.fi_max_stack);
  open_frame st ~callsite ~vsp:(parent_sp - f.Compile.fi_frame_bytes) ~ret_pc
    ~count:1 f.Compile.fi_nslots;
  let stack = st.stack and locals = st.locals and base = st.lbase in
  let sp = st.sp - f.Compile.fi_nargs in
  for j = 0 to f.Compile.fi_nargs - 1 do
    Array.unsafe_set locals (base + j) (Array.unsafe_get stack (sp + j))
  done;
  st.sp <- sp

let word_access st ~addr ~site ~loc =
  if addr < 0 then error loc "invalid address %d" addr;
  Machine.set_pc st.m site;
  st.tool.Tool.on_access ~addr ~len:8 ~kind:Tool.Read ~site;
  Machine.load_word st.m addr

let word_store st ~addr ~site ~loc v =
  if addr < 0 then error loc "invalid address %d" addr;
  Machine.set_pc st.m site;
  st.tool.Tool.on_access ~addr ~len:8 ~kind:Tool.Write ~site;
  Machine.store_word st.m addr v

let byte_read st ~addr ~site ~loc =
  if addr < 0 then error loc "invalid address %d" addr;
  Machine.set_pc st.m site;
  st.tool.Tool.on_access ~addr ~len:1 ~kind:Tool.Read ~site;
  Machine.load_byte st.m addr

let byte_write st ~addr ~site ~loc v =
  if addr < 0 then error loc "invalid address %d" addr;
  Machine.set_pc st.m site;
  st.tool.Tool.on_access ~addr ~len:1 ~kind:Tool.Write ~site;
  Machine.store_byte st.m addr v

(* A statement's prologue, as the interpreter runs it: count the step,
   check the limit, set the pc, charge the statement.  Fused statement
   heads run it before their own operation. *)
let[@inline] statement st saddr loc =
  let steps = st.steps + 1 in
  st.steps <- steps;
  if steps > st.step_limit then
    error loc "step limit exceeded (%d statements)" st.step_limit;
  Machine.set_pc st.m saddr;
  Machine.work st.m statement_cost

(* A counted descent ({!Compile.descent}), entered with [p0 > c]: the
   wrapper calls itself [levels] times before its guard fails, and each
   level runs two statements (the guard, then the [return]).  When the
   levels' steps stay within the limit and their cycles end before the
   next snapshot boundary, they run here as one run frame, at the bottom
   level's stack pointer, with the bottom level's locals window alone:
   every other level resumes at the [Ret] after its self-call, so none
   reads its window and {!ret} pops the run whole.  One [Machine.work]
   charges every statement to the current phase.  Otherwise nothing
   happens and the guard runs as the plain [Stmt_jz_si], one level at a
   time.  Both checks divide, so neither can overflow. *)
let descend st (d : Compile.descent) =
  let p0 = Array.unsafe_get st.locals st.lbase in
  let levels = ((p0 - d.Compile.c - 1) / d.Compile.k) + 1 in
  let now = Clock.cycles (Machine.clock st.m) in
  let next = Telemetry.next_snapshot (Machine.telemetry st.m) in
  if levels <= (st.step_limit - st.steps) / 2
     && levels <= (next - now - 1) / (2 * statement_cost)
  then begin
    let f = d.Compile.callee and caller = st.lbase in
    open_frame st ~callsite:d.Compile.callsite
      ~vsp:(top_vsp st - (levels * f.Compile.fi_frame_bytes))
      ~ret_pc:d.Compile.resume ~count:levels f.Compile.fi_nslots;
    let locals = st.locals and base = st.lbase in
    Array.unsafe_set locals base (p0 - (levels * d.Compile.k));
    for j = 1 to f.Compile.fi_nargs - 1 do
      Array.unsafe_set locals (base + j) (Array.unsafe_get locals (caller + j))
    done;
    st.steps <- st.steps + (2 * levels);
    Machine.set_pc st.m d.Compile.step_saddr;
    Machine.work st.m (2 * statement_cost * levels)
  end

(* Run [f] to completion (its arguments are already on the operand stack)
   and return its value.  Used for [main] and for [spawn] bodies; ordinary
   calls stay inside the dispatch loop. *)
let rec run_call st (f : Compile.func_info) ~callsite : int =
  push_frame st f ~callsite ~ret_pc:(-1);
  dispatch st st.code.Compile.instrs f.Compile.fi_entry

(* Pop the innermost frame, a descent's run frame whole.  Its value stays
   on the operand stack, except at a host boundary, where it is returned.
   A resume point that is itself a [Ret] (the caller ran [return f(...)])
   pops the caller's frame too, without a dispatch in between. *)
and ret st code : int =
  let n = st.nframes - 1 in
  st.nframes <- n;
  let o = frame_words * n in
  st.ltop <- st.lbase;
  st.lbase <- Array.unsafe_get st.frames (o + 3);
  let ret_pc = Array.unsafe_get st.frames (o + 2) in
  if ret_pc < 0 then begin
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_get st.stack sp
  end
  else
    match Array.unsafe_get code ret_pc with
    | Compile.Ret -> ret st code
    | _ -> dispatch st code ret_pc

and dispatch st code i : int =
  match Array.unsafe_get code i with
  | Compile.Stmt (saddr, loc) ->
    statement st saddr loc;
    dispatch st code (i + 1)
  | Compile.Stmt_load (saddr, loc, s) ->
    statement st saddr loc;
    Array.unsafe_set st.stack st.sp (Array.unsafe_get st.locals (st.lbase + s));
    st.sp <- st.sp + 1;
    dispatch st code (i + 1)
  | Compile.Stmt_bin_si (saddr, loc, tag, s, n) ->
    statement st saddr loc;
    Array.unsafe_set st.stack st.sp
      (binop tag (Array.unsafe_get st.locals (st.lbase + s)) n);
    st.sp <- st.sp + 1;
    dispatch st code (i + 1)
  | Compile.Stmt_jz_si (saddr, loc, tag, s, n, t) ->
    statement st saddr loc;
    dispatch st code
      (if binop tag (Array.unsafe_get st.locals (st.lbase + s)) n = 0 then t
       else i + 1)
  | Compile.Descent ({ Compile.saddr; loc; c; target; _ } as d) ->
    if Array.unsafe_get st.locals st.lbase > c then descend st d;
    statement st saddr loc;
    dispatch st code
      (if Array.unsafe_get st.locals st.lbase > c then i + 1 else target)
  | Compile.Jz_si (tag, s, n, t) ->
    dispatch st code
      (if binop tag (Array.unsafe_get st.locals (st.lbase + s)) n = 0 then t
       else i + 1)
  | Compile.Jmp t ->
    if st.buggy && t <= i then Machine.work st.m 1;
    dispatch st code t
  | Compile.Jz t ->
    let sp = st.sp - 1 in
    st.sp <- sp;
    dispatch st code (if Array.unsafe_get st.stack sp = 0 then t else i + 1)
  | Compile.Jnz t ->
    let sp = st.sp - 1 in
    st.sp <- sp;
    dispatch st code (if Array.unsafe_get st.stack sp <> 0 then t else i + 1)
  | Compile.Call (callee, callsite) ->
    push_frame st callee ~callsite ~ret_pc:(i + 1);
    dispatch st code callee.Compile.fi_entry
  | Compile.Call_l (s, callee, callsite) ->
    Array.unsafe_set st.stack st.sp (Array.unsafe_get st.locals (st.lbase + s));
    st.sp <- st.sp + 1;
    push_frame st callee ~callsite ~ret_pc:(i + 1);
    dispatch st code callee.Compile.fi_entry
  | Compile.Spawn (callee, callsite) ->
    let threads = Machine.threads st.m in
    let parent = Threads.current threads in
    let tid = Threads.spawn threads ~name:callee.Compile.fi_name in
    Threads.set_current threads tid;
    let r =
      Fun.protect
        ~finally:(fun () ->
          Threads.exit_thread threads tid;
          Threads.set_current threads parent)
        (fun () -> run_call st callee ~callsite)
    in
    Array.unsafe_set st.stack st.sp r;
    st.sp <- st.sp + 1;
    dispatch st code (i + 1)
  | Compile.Ret -> ret st code
  | Compile.Push n ->
    Array.unsafe_set st.stack st.sp n;
    st.sp <- st.sp + 1;
    dispatch st code (i + 1)
  | Compile.Pop ->
    st.sp <- st.sp - 1;
    dispatch st code (i + 1)
  | Compile.Load slot ->
    Array.unsafe_set st.stack st.sp
      (Array.unsafe_get st.locals (st.lbase + slot));
    st.sp <- st.sp + 1;
    dispatch st code (i + 1)
  | Compile.Store slot ->
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set st.locals (st.lbase + slot) (Array.unsafe_get st.stack sp);
    dispatch st code (i + 1)
  | Compile.Neg ->
    let stack = st.stack and top = st.sp - 1 in
    Array.unsafe_set stack top (-Array.unsafe_get stack top);
    dispatch st code (i + 1)
  | Compile.Not ->
    let stack = st.stack and top = st.sp - 1 in
    Array.unsafe_set stack top (of_bool (Array.unsafe_get stack top = 0));
    dispatch st code (i + 1)
  | Compile.Bool ->
    let stack = st.stack and top = st.sp - 1 in
    Array.unsafe_set stack top (of_bool (Array.unsafe_get stack top <> 0));
    dispatch st code (i + 1)
  | Compile.Add ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (Array.unsafe_get stack (sp - 1) + Array.unsafe_get stack sp);
    dispatch st code (i + 1)
  | Compile.Sub ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (Array.unsafe_get stack (sp - 1) - Array.unsafe_get stack sp);
    dispatch st code (i + 1)
  | Compile.Mul ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (Array.unsafe_get stack (sp - 1) * Array.unsafe_get stack sp);
    dispatch st code (i + 1)
  | Compile.Div loc ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    let b = Array.unsafe_get stack sp in
    if b = 0 then error loc "division by zero";
    Array.unsafe_set stack (sp - 1) (Array.unsafe_get stack (sp - 1) / b);
    dispatch st code (i + 1)
  | Compile.Mod loc ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    let b = Array.unsafe_get stack sp in
    if b = 0 then error loc "modulo by zero";
    Array.unsafe_set stack (sp - 1) (Array.unsafe_get stack (sp - 1) mod b);
    dispatch st code (i + 1)
  | Compile.Lt ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (of_bool (Array.unsafe_get stack (sp - 1) < Array.unsafe_get stack sp));
    dispatch st code (i + 1)
  | Compile.Le ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (of_bool (Array.unsafe_get stack (sp - 1) <= Array.unsafe_get stack sp));
    dispatch st code (i + 1)
  | Compile.Gt ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (of_bool (Array.unsafe_get stack (sp - 1) > Array.unsafe_get stack sp));
    dispatch st code (i + 1)
  | Compile.Ge ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (of_bool (Array.unsafe_get stack (sp - 1) >= Array.unsafe_get stack sp));
    dispatch st code (i + 1)
  | Compile.Eq ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (of_bool (Array.unsafe_get stack (sp - 1) = Array.unsafe_get stack sp));
    dispatch st code (i + 1)
  | Compile.Ne ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (of_bool (Array.unsafe_get stack (sp - 1) <> Array.unsafe_get stack sp));
    dispatch st code (i + 1)
  | Compile.Band ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (Array.unsafe_get stack (sp - 1) land Array.unsafe_get stack sp);
    dispatch st code (i + 1)
  | Compile.Bor ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (Array.unsafe_get stack (sp - 1) lor Array.unsafe_get stack sp);
    dispatch st code (i + 1)
  | Compile.Bxor ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (Array.unsafe_get stack (sp - 1) lxor Array.unsafe_get stack sp);
    dispatch st code (i + 1)
  | Compile.Shl ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (Array.unsafe_get stack (sp - 1) lsl (Array.unsafe_get stack sp land 62));
    dispatch st code (i + 1)
  | Compile.Shr ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    Array.unsafe_set stack (sp - 1)
      (Array.unsafe_get stack (sp - 1) lsr (Array.unsafe_get stack sp land 62));
    dispatch st code (i + 1)
  | Compile.Bin_si (tag, s, n) ->
    Array.unsafe_set st.stack st.sp
      (binop tag (Array.unsafe_get st.locals (st.lbase + s)) n);
    st.sp <- st.sp + 1;
    dispatch st code (i + 1)
  | Compile.Bin_is (tag, n, s) ->
    Array.unsafe_set st.stack st.sp
      (binop tag n (Array.unsafe_get st.locals (st.lbase + s)));
    st.sp <- st.sp + 1;
    dispatch st code (i + 1)
  | Compile.Bin_ss (tag, s1, s2) ->
    let locals = st.locals and lbase = st.lbase in
    Array.unsafe_set st.stack st.sp
      (binop tag
         (Array.unsafe_get locals (lbase + s1))
         (Array.unsafe_get locals (lbase + s2)));
    st.sp <- st.sp + 1;
    dispatch st code (i + 1)
  | Compile.Bin_ti (tag, n) ->
    let stack = st.stack and top = st.sp - 1 in
    Array.unsafe_set stack top (binop tag (Array.unsafe_get stack top) n);
    dispatch st code (i + 1)
  | Compile.Bin_ts (tag, s) ->
    let stack = st.stack and top = st.sp - 1 in
    Array.unsafe_set stack top
      (binop tag (Array.unsafe_get stack top)
         (Array.unsafe_get st.locals (st.lbase + s)));
    dispatch st code (i + 1)
  | Compile.Index { addr = site; loc } ->
    let stack = st.stack in
    let sp = st.sp - 1 in
    st.sp <- sp;
    let idx = Array.unsafe_get stack sp in
    let base = Array.unsafe_get stack (sp - 1) in
    Array.unsafe_set stack (sp - 1)
      (word_access st ~addr:(base + (8 * idx)) ~site ~loc);
    dispatch st code (i + 1)
  | Compile.Store_idx { addr = site; loc } ->
    let stack = st.stack in
    let sp = st.sp - 3 in
    st.sp <- sp;
    let v = Array.unsafe_get stack (sp + 2) in
    let idx = Array.unsafe_get stack (sp + 1) in
    let base = Array.unsafe_get stack sp in
    word_store st ~addr:(base + (8 * idx)) ~site ~loc v;
    dispatch st code (i + 1)
  | Compile.Malloc { addr = site; loc } ->
    let top = st.sp - 1 in
    let size = st.stack.(top) in
    if size < 0 then error loc "malloc of negative size %d" size;
    Machine.set_pc st.m site;
    st.stack.(top) <- st.tool.Tool.malloc ~size ~ctx:(make_ctx st site);
    dispatch st code (i + 1)
  | Compile.Calloc { addr = site; loc } ->
    let sp = st.sp - 1 in
    st.sp <- sp;
    let size = st.stack.(sp) in
    let count = st.stack.(sp - 1) in
    if count < 0 || size < 0 then error loc "calloc with negative argument";
    if size > 0 && count > max_int / size then
      error loc "calloc of %d * %d bytes overflows" count size;
    let total = count * size in
    Machine.set_pc st.m site;
    let p = st.tool.Tool.malloc ~size:total ~ctx:(make_ctx st site) in
    (* zeroing is in-bounds by definition; modeled as one bulk operation *)
    Sparse_mem.fill (Machine.mem st.m) p total 0;
    Machine.work st.m total;
    st.stack.(sp - 1) <- p;
    dispatch st code (i + 1)
  | Compile.Free { addr = site; loc = _ } ->
    let top = st.sp - 1 in
    let ptr = st.stack.(top) in
    Machine.set_pc st.m site;
    st.tool.Tool.free ~ptr;
    st.stack.(top) <- 0;
    dispatch st code (i + 1)
  | Compile.Print parts ->
    let nvals =
      Array.fold_left
        (fun n p -> match p with Compile.Val -> n + 1 | Compile.Lit _ -> n)
        0 parts
    in
    let sp = st.sp - nvals in
    st.sp <- sp;
    let k = ref 0 in
    let rendered =
      Array.map
        (fun p ->
          match p with
          | Compile.Lit s -> s
          | Compile.Val ->
            let s = string_of_int st.stack.(sp + !k) in
            incr k;
            s)
        parts
    in
    Buffer.add_string st.buf (String.concat " " (Array.to_list rendered));
    Buffer.add_char st.buf '\n';
    st.stack.(sp) <- 0;
    st.sp <- sp + 1;
    dispatch st code (i + 1)
  | Compile.Input { addr = _; loc } ->
    let top = st.sp - 1 in
    let idx = st.stack.(top) in
    if idx < 0 || idx >= Array.length st.inputs then
      error loc "input index %d out of range (have %d)" idx
        (Array.length st.inputs);
    st.stack.(top) <- st.inputs.(idx);
    dispatch st code (i + 1)
  | Compile.Input_len ->
    Array.unsafe_set st.stack st.sp (Array.length st.inputs);
    st.sp <- st.sp + 1;
    dispatch st code (i + 1)
  | Compile.Rand { addr = _; loc } ->
    let top = st.sp - 1 in
    let n = st.stack.(top) in
    if n <= 0 then error loc "rand bound must be positive";
    st.stack.(top) <- Prng.int st.app_rng n;
    dispatch st code (i + 1)
  | Compile.Memset { addr = site; loc } ->
    let sp = st.sp - 2 in
    st.sp <- sp;
    let n = st.stack.(sp + 1) in
    let v = st.stack.(sp) in
    let p = st.stack.(sp - 1) in
    if n < 0 then error loc "memset with negative length";
    for j = 0 to n - 1 do
      byte_write st ~addr:(p + j) ~site ~loc (v land 0xff)
    done;
    st.stack.(sp - 1) <- 0;
    dispatch st code (i + 1)
  | Compile.Memcpy { addr = site; loc } ->
    let sp = st.sp - 2 in
    st.sp <- sp;
    let n = st.stack.(sp + 1) in
    let s = st.stack.(sp) in
    let d = st.stack.(sp - 1) in
    if n < 0 then error loc "memcpy with negative length";
    for j = 0 to n - 1 do
      let byte = byte_read st ~addr:(s + j) ~site ~loc in
      byte_write st ~addr:(d + j) ~site ~loc byte
    done;
    st.stack.(sp - 1) <- 0;
    dispatch st code (i + 1)
  | Compile.Load8 { addr = site; loc } ->
    let sp = st.sp - 1 in
    st.sp <- sp;
    let off = st.stack.(sp) in
    let p = st.stack.(sp - 1) in
    st.stack.(sp - 1) <- byte_read st ~addr:(p + off) ~site ~loc;
    dispatch st code (i + 1)
  | Compile.Store8 { addr = site; loc } ->
    let sp = st.sp - 2 in
    st.sp <- sp;
    let v = st.stack.(sp + 1) in
    let off = st.stack.(sp) in
    let p = st.stack.(sp - 1) in
    byte_write st ~addr:(p + off) ~site ~loc (v land 0xff);
    st.stack.(sp - 1) <- 0;
    dispatch st code (i + 1)
  | Compile.Sleep_ms { addr = _; loc } ->
    let top = st.sp - 1 in
    let ms = st.stack.(top) in
    if ms < 0 then error loc "sleep_ms with negative duration";
    Machine.work st.m (ms * (Cost.cycles_per_second / 1000));
    st.stack.(top) <- 0;
    dispatch st code (i + 1)
  | Compile.Work { addr = _; loc } ->
    let top = st.sp - 1 in
    let n = st.stack.(top) in
    if n < 0 then error loc "work with negative cycles";
    Machine.work st.m n;
    st.stack.(top) <- 0;
    dispatch st code (i + 1)
  | Compile.Str_err loc -> error loc "string literal used as a value"

(* The operand stack, the locals and the frames (1,025 words each, so
   major-heap blocks) are recycled through domain-local spares, at
   whatever size the last run grew them to.  Stale contents are harmless:
   a run reads no stack slot it did not push, no local it did not store
   and no frame above [nframes], exactly as when a frame reuses the slots
   of a returned one. *)
let spare_stack : int array Spare.t = Spare.create ()
let spare_locals : int array Spare.t = Spare.create ()
let spare_frames : int array Spare.t = Spare.create ()
let fresh_slots () = Array.make 1024 0

let run ?(buggy_cycles = false) ~machine ~tool ~program ?(inputs = [||])
    ?(app_seed = 1) ?(step_limit = 50_000_000) () =
  let code = Compile.get program in
  let main =
    match Hashtbl.find_opt code.Compile.funcs "main" with
    | Some f -> f
    | None -> failwith "Vm.run: program has no main (did Sema run?)"
  in
  let rec st =
    { m = machine;
      tool;
      code;
      inputs;
      app_rng = Prng.create ~seed:app_seed;
      buf = Buffer.create 256;
      buggy = buggy_cycles;
      frames = Spare.take spare_frames ~fresh:fresh_slots;
      nframes = 0;
      ctx;
      steps = 0;
      step_limit;
      stack = Spare.take spare_stack ~fresh:fresh_slots;
      sp = 0;
      locals = Spare.take spare_locals ~fresh:fresh_slots;
      lbase = 0;
      ltop = 0 }
  and ctx =
    { Alloc_ctx.callsite = 0;
      stack_offset = 0;
      write =
        (fun c ->
          Machine.work machine Cost.backtrace_full;
          write_frames st ctx.Alloc_ctx.callsite c) }
  in
  Machine.set_backtrace_provider machine (fun () ->
      let c = Alloc_ctx.chain (st.nframes + 1) in
      write_frames st (Machine.pc machine) c;
      Alloc_ctx.to_list c ~off:0 ~len:c.Alloc_ctx.len);
  let rv =
    Fun.protect
      ~finally:(fun () ->
        (* The machine's provider outlives the run: leave it the frames
           still live (none after a normal return, the faulting chain
           after an error), not the array the next run will reuse. *)
        let frames = st.frames in
        st.frames <- Array.sub frames 0 (frame_words * st.nframes);
        Spare.give spare_frames frames;
        Spare.give spare_stack st.stack;
        Spare.give spare_locals st.locals)
      (fun () -> run_call st main ~callsite:main.Compile.fi_addr)
  in
  { Interp.output = Buffer.contents st.buf; return_value = rv; steps = st.steps }
