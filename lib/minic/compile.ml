(* AST -> flat bytecode.  Every variable reference is resolved to a frame
   slot at compile time (Sema has already rejected unbound names and
   duplicate declarations, so lexical resolution here is total), every
   jump target is a precomputed instruction index, and every instruction
   that can touch the machine carries the code address / source location
   the interpreter would have used — the VM replays the interpreter's
   set_pc / work / error sequence bit-identically.

   A peephole fuses adjacent instructions as they are emitted.  A pure
   binary operator absorbs the Push/Load instructions of its operands
   ([Bin_si] and friends, see [emit_fused]); then [emit] makes
   superinstructions of the hot pairs: a statement head followed by a
   [Load] or a [Bin_si] ([Stmt_load], [Stmt_bin_si]), a [Bin_si] followed
   by [Jz] ([Jz_si], and [Stmt_jz_si] when the statement head is also
   absorbed) and a [Load] followed by a [Call] ([Call_l]).  Three rules
   keep fusion invisible:
   - the barrier: no rewrite consumes an instruction emitted before the
     most recently minted label, so every jump target stays the first
     instruction of the sequence it was minted for;
   - order: a fused instruction runs its parts in the original order, so
     a fused statement head counts the step, checks the step limit, sets
     the pc and charges [statement_cost] before its pure operation;
   - return chains are not an instruction: a [Ret] whose resume point is
     another [Ret] (a [return f(...)]) pops both frames in the VM without
     a dispatch in between, and each frame is still pushed at its call,
     so allocation contexts see every live call site.

   After the peephole, [descent] rewrites the entry instruction of one
   shape in place: a self-recursive wrapper whose body starts
   [if (p0 > c) { return f(p0 - k, p1, ..., pn-1); }] with constants
   [c >= 0] and [k >= 1] (the allocation wrappers that mint distinct
   stack offsets by call depth).  Its guard, [Stmt_jz_si (p0 > c)], becomes
   [Descent]: entered with [p0 > c], the VM knows the whole descent, so
   it pushes one run frame standing for every level, counts two steps a
   level, charges all the levels' statements as one [Machine.work], and
   runs the plain guard at the bottom.  Stack offsets and chains read
   through the run frame are the ones a frame per level gave.  The VM
   runs the plain guard, one level at a time, when the step limit or the
   next telemetry snapshot boundary falls inside the descent: a limit
   must stop at its own statement, and a snapshot must see the profile
   of its own instant. *)

type site = { addr : int; loc : Srcloc.t }

type print_part = Lit of string | Val

type func_info = {
  fi_name : string;
  fi_addr : int;          (* function entry code address (Ast.func.faddr) *)
  fi_nargs : int;
  fi_nslots : int;        (* params + declaration sites *)
  fi_frame_bytes : int;   (* Program.frame_size *)
  mutable fi_entry : int; (* instruction index of the body; patched *)
  mutable fi_max_stack : int;
      (* conservative bound on operand-stack growth while this function's
         own code runs (nested calls re-check at their own frame push), so
         the VM verifies capacity once per call and uses unchecked pushes
         everywhere else *)
}

(* operator tag for the fused operand-mode instructions; Div/Mod are
   excluded (they carry a location for the zero check) *)
type binop_tag =
  | TAdd | TSub | TMul
  | TLt | TLe | TGt | TGe | TEq | TNe
  | TBand | TBor | TBxor | TShl | TShr

type instr =
  (* control / frame *)
  | Stmt of int * Srcloc.t  (* statement prologue: saddr, loc for step limit *)
  | Jmp of int
  | Jz of int
  | Jnz of int
  | Call of func_info * int (* callee, callsite (call expression's eaddr) *)
  | Spawn of func_info * int
  | Ret
  (* operand stack *)
  | Push of int
  | Pop
  | Load of int             (* slot -> push *)
  | Store of int            (* pop -> slot *)
  (* pure operators *)
  | Neg
  | Not
  | Bool                    (* normalize top to 0/1 *)
  | Add | Sub | Mul
  | Div of Srcloc.t
  | Mod of Srcloc.t
  | Lt | Le | Gt | Ge | Eq | Ne
  | Band | Bor | Bxor | Shl | Shr
  (* fused operand modes (peephole): s = slot, i = immediate, t = stack top *)
  | Bin_si of binop_tag * int * int  (* locals[s] op imm -> push *)
  | Bin_is of binop_tag * int * int  (* imm op locals[s] -> push *)
  | Bin_ss of binop_tag * int * int  (* locals[s1] op locals[s2] -> push *)
  | Bin_ti of binop_tag * int        (* top op imm, in place *)
  | Bin_ts of binop_tag * int        (* top op locals[s], in place *)
  (* superinstructions (peephole): a statement head or a Load fused with
     what follows it *)
  | Jz_si of binop_tag * int * int * int  (* Bin_si then Jz target *)
  | Stmt_load of int * Srcloc.t * int     (* Stmt then Load *)
  | Stmt_bin_si of int * Srcloc.t * binop_tag * int * int
  | Stmt_jz_si of int * Srcloc.t * binop_tag * int * int * int
  | Call_l of int * func_info * int       (* Load slot then Call *)
  | Descent of descent                    (* a self-recursive guard *)
  (* memory *)
  | Index of site           (* pop idx, base; push word at base + 8*idx *)
  | Store_idx of site       (* pop v, idx, base; store word *)
  (* builtins *)
  | Malloc of site
  | Calloc of site
  | Free of site
  | Print of print_part array
  | Input of site
  | Input_len
  | Rand of site
  | Memset of site
  | Memcpy of site
  | Load8 of site
  | Store8 of site
  | Sleep_ms of site
  | Work of site
  | Str_err of Srcloc.t     (* unreachable post-Sema; kept for safety *)

(* [Stmt_jz_si (saddr, loc, TGt, 0, c, target)] at the entry of
   [callee], followed by [Stmt_bin_si (step_saddr, _, TSub, 0, k)], the
   pass-through [Load]s and the self-call at [resume - 1] *)
and descent = {
  saddr : int;
  loc : Srcloc.t;
  c : int;
  target : int;
  step_saddr : int;
  k : int;
  callee : func_info;
  callsite : int;
  resume : int;
}

type code = {
  instrs : instr array;
  funcs : (string, func_info) Hashtbl.t;
}

(* growable emission buffer; tracks a linear (never-undercounting) bound
   on operand-stack depth for the function being compiled *)
type buf = {
  mutable arr : instr array;
  mutable len : int;
  mutable depth : int;
  mutable max_depth : int;
  mutable barrier : int;
      (* fusion fence: no peephole rewrite may consume instructions emitted
         before the most recently minted label, so every jump target stays
         the first instruction of the sequence it was minted for *)
}

(* net operand-stack effect of one instruction *)
let stack_effect = function
  | Push _ | Load _ | Input_len | Str_err _ -> 1
  | Pop | Store _ | Jz _ | Jnz _ -> -1
  | Add | Sub | Mul | Div _ | Mod _ | Lt | Le | Gt | Ge | Eq | Ne | Band
  | Bor | Bxor | Shl | Shr -> -1
  | Neg | Not | Bool -> 0
  | Bin_si _ | Bin_is _ | Bin_ss _ -> 1
  | Bin_ti _ | Bin_ts _ -> 0
  | Stmt_load _ | Stmt_bin_si _ -> 1
  | Jz_si _ | Stmt_jz_si _ | Descent _ -> 0
  | Call_l (_, f, _) -> 2 - f.fi_nargs
  | Index _ -> -1
  | Store_idx _ -> -3
  | Malloc _ | Free _ | Input _ | Rand _ | Sleep_ms _ | Work _ -> 0
  | Calloc _ | Load8 _ -> -1
  | Memset _ | Memcpy _ | Store8 _ -> -2
  | Print parts ->
    1
    - Array.fold_left
        (fun n p -> match p with Val -> n + 1 | Lit _ -> n)
        0 parts
  | Call (f, _) | Spawn (f, _) -> 1 - f.fi_nargs
  | Stmt _ | Jmp _ | Ret -> 0

let append b i =
  if b.len = Array.length b.arr then begin
    let arr = Array.make (2 * Array.length b.arr) Pop in
    Array.blit b.arr 0 arr 0 b.len;
    b.arr <- arr
  end;
  b.arr.(b.len) <- i;
  b.len <- b.len + 1;
  b.depth <- b.depth + stack_effect i;
  if b.depth > b.max_depth then b.max_depth <- b.depth

let drop b n =
  let rec undo k =
    if k < n then begin
      b.len <- b.len - 1;
      b.depth <- b.depth - stack_effect b.arr.(b.len);
      undo (k + 1)
    end
  in
  undo 0

(* Superinstructions: the instruction [i] about to be emitted, fused with
   the last one emitted.  Every part keeps its place in the sequence; a
   rewrite drops only a depth bound's intermediate, never its peak, since
   [drop] leaves [max_depth] alone. *)
let fuse last i =
  match (last, i) with
  | Stmt (a, l), Load s -> Some (Stmt_load (a, l, s))
  | Stmt (a, l), Bin_si (tag, s, n) -> Some (Stmt_bin_si (a, l, tag, s, n))
  | Bin_si (tag, s, n), Jz t -> Some (Jz_si (tag, s, n, t))
  | Stmt_bin_si (a, l, tag, s, n), Jz t -> Some (Stmt_jz_si (a, l, tag, s, n, t))
  | Load s, Call (f, site) -> Some (Call_l (s, f, site))
  | _ -> None

let emit b i =
  match if b.len > b.barrier then fuse b.arr.(b.len - 1) i else None with
  | Some f ->
    drop b 1;
    append b f
  | None -> append b i

let here b =
  b.barrier <- b.len;
  b.len

(* emit a jump with an unknown target; returns the index to patch *)
let emit_hole b mk =
  emit b (mk (-1));
  b.len - 1

let patch b at target =
  b.arr.(at) <-
    (match b.arr.(at) with
    | Jmp _ -> Jmp target
    | Jz _ -> Jz target
    | Jnz _ -> Jnz target
    | Jz_si (tag, s, n, _) -> Jz_si (tag, s, n, target)
    | Stmt_jz_si (a, l, tag, s, n, _) -> Stmt_jz_si (a, l, tag, s, n, target)
    | _ -> assert false)

(* Constant evaluation for the fold below — must agree bit-for-bit with the
   VM's (and interpreter's) operator semantics. *)
let eval_tag tag a b =
  match tag with
  | TAdd -> a + b
  | TSub -> a - b
  | TMul -> a * b
  | TLt -> if a < b then 1 else 0
  | TLe -> if a <= b then 1 else 0
  | TGt -> if a > b then 1 else 0
  | TGe -> if a >= b then 1 else 0
  | TEq -> if a = b then 1 else 0
  | TNe -> if a <> b then 1 else 0
  | TBand -> a land b
  | TBor -> a lor b
  | TBxor -> a lxor b
  | TShl -> a lsl (b land 62)
  | TShr -> a lsr (b land 62)

(* Peephole: fuse a pure binary operator with the Push/Load instructions
   that produced its operands.  The operands are pure, so no machine
   interaction is skipped; virtual-cycle accounting is untouched.  A left
   operand already fused into its statement head ([Stmt_load]) is split
   back out, and [emit] fuses the head with the new operator instead. *)
let emit_fused b tag =
  let len = b.len and bar = b.barrier in
  let fused =
    if len - 2 >= bar then
      match (b.arr.(len - 2), b.arr.(len - 1)) with
      | Push x, Push y -> Some (2, [ Push (eval_tag tag x y) ])
      | Load s, Push n -> Some (2, [ Bin_si (tag, s, n) ])
      | Stmt_load (a, l, s), Push n -> Some (2, [ Stmt (a, l); Bin_si (tag, s, n) ])
      | Push n, Load s -> Some (2, [ Bin_is (tag, n, s) ])
      | Load s1, Load s2 -> Some (2, [ Bin_ss (tag, s1, s2) ])
      | Stmt_load (a, l, s1), Load s2 ->
        Some (2, [ Stmt (a, l); Bin_ss (tag, s1, s2) ])
      | _, Push n -> Some (1, [ Bin_ti (tag, n) ])
      | _, Load s -> Some (1, [ Bin_ts (tag, s) ])
      | _ -> None
    else if len - 1 >= bar then
      match b.arr.(len - 1) with
      | Push n -> Some (1, [ Bin_ti (tag, n) ])
      | Load s -> Some (1, [ Bin_ts (tag, s) ])
      | _ -> None
    else None
  in
  match fused with
  | Some (n, is) ->
    drop b n;
    List.iter (emit b) is
  | None ->
    emit b
      (match tag with
      | TAdd -> Add
      | TSub -> Sub
      | TMul -> Mul
      | TLt -> Lt
      | TLe -> Le
      | TGt -> Gt
      | TGe -> Ge
      | TEq -> Eq
      | TNe -> Ne
      | TBand -> Band
      | TBor -> Bor
      | TBxor -> Bxor
      | TShl -> Shl
      | TShr -> Shr)

(* compile-time lexical environment: a stack of scopes, each mapping a
   name to its frame slot.  Mirrors the interpreter's scope chain. *)
type env = {
  mutable scopes : (string * int) list list;
  mutable next_slot : int;
}

let push_scope env = env.scopes <- [] :: env.scopes
let pop_scope env = env.scopes <- List.tl env.scopes

let declare env name =
  let slot = env.next_slot in
  env.next_slot <- slot + 1;
  (match env.scopes with
  | scope :: rest -> env.scopes <- ((name, slot) :: scope) :: rest
  | [] -> assert false);
  slot

let lookup env name =
  let rec go = function
    | [] -> invalid_arg ("Compile: unbound variable " ^ name) (* Sema-checked *)
    | scope :: rest -> (
      match List.assoc_opt name scope with Some s -> s | None -> go rest)
  in
  go env.scopes

(* break / continue jump holes of the innermost loop *)
type loop_ctx = { mutable breaks : int list; continue_to : int option; mutable continues : int list }

let site_of_expr (e : Ast.expr) = { addr = e.eaddr; loc = e.eloc }

let rec compile_expr b env funcs (e : Ast.expr) =
  match e.e with
  | Ast.Int n -> emit b (Push n)
  | Ast.Str _ -> emit b (Str_err e.eloc)
  | Ast.Var x -> emit b (Load (lookup env x))
  | Ast.Unop (Ast.Neg, a) ->
    compile_expr b env funcs a;
    emit b Neg
  | Ast.Unop (Ast.Not, a) ->
    compile_expr b env funcs a;
    emit b Not
  | Ast.Binop (Ast.LAnd, x, y) ->
    (* if truthy x then of_bool (truthy y) else 0 *)
    compile_expr b env funcs x;
    let to_false = emit_hole b (fun t -> Jz t) in
    compile_expr b env funcs y;
    emit b Bool;
    let to_end = emit_hole b (fun t -> Jmp t) in
    patch b to_false (here b);
    emit b (Push 0);
    patch b to_end (here b)
  | Ast.Binop (Ast.LOr, x, y) ->
    compile_expr b env funcs x;
    let to_true = emit_hole b (fun t -> Jnz t) in
    compile_expr b env funcs y;
    emit b Bool;
    let to_end = emit_hole b (fun t -> Jmp t) in
    patch b to_true (here b);
    emit b (Push 1);
    patch b to_end (here b)
  | Ast.Binop (op, x, y) -> (
    compile_expr b env funcs x;
    compile_expr b env funcs y;
    match op with
    | Ast.Div -> emit b (Div e.eloc)
    | Ast.Mod -> emit b (Mod e.eloc)
    | Ast.Add -> emit_fused b TAdd
    | Ast.Sub -> emit_fused b TSub
    | Ast.Mul -> emit_fused b TMul
    | Ast.Lt -> emit_fused b TLt
    | Ast.Le -> emit_fused b TLe
    | Ast.Gt -> emit_fused b TGt
    | Ast.Ge -> emit_fused b TGe
    | Ast.Eq -> emit_fused b TEq
    | Ast.Ne -> emit_fused b TNe
    | Ast.BAnd -> emit_fused b TBand
    | Ast.BOr -> emit_fused b TBor
    | Ast.BXor -> emit_fused b TBxor
    | Ast.Shl -> emit_fused b TShl
    | Ast.Shr -> emit_fused b TShr
    | Ast.LAnd | Ast.LOr -> assert false)
  | Ast.Index (p, i) ->
    compile_expr b env funcs p;
    compile_expr b env funcs i;
    emit b (Index (site_of_expr e))
  | Ast.Call (name, args) -> compile_call b env funcs e name args

and compile_call b env funcs (e : Ast.expr) name args =
  let s = site_of_expr e in
  let all () = List.iter (compile_expr b env funcs) args in
  match name with
  | "malloc" -> all (); emit b (Malloc s)
  | "calloc" -> all (); emit b (Calloc s)
  | "free" -> all (); emit b (Free s)
  | "print" ->
    let parts =
      List.map
        (fun (a : Ast.expr) ->
          match a.Ast.e with
          | Ast.Str str -> Lit str
          | _ ->
            compile_expr b env funcs a;
            Val)
        args
    in
    emit b (Print (Array.of_list parts))
  | "input" -> all (); emit b (Input s)
  | "input_len" -> emit b Input_len
  | "rand" -> all (); emit b (Rand s)
  | "memset" -> all (); emit b (Memset s)
  | "memcpy" -> all (); emit b (Memcpy s)
  | "load8" -> all (); emit b (Load8 s)
  | "store8" -> all (); emit b (Store8 s)
  | "sleep_ms" -> all (); emit b (Sleep_ms s)
  | "work" -> all (); emit b (Work s)
  | "spawn" -> (
    match args with
    | { Ast.e = Ast.Str target; _ } :: rest ->
      List.iter (compile_expr b env funcs) rest;
      emit b (Spawn (Hashtbl.find funcs target, e.eaddr))
    | _ -> invalid_arg "Compile: spawn without a function-name string" (* Sema-checked *))
  | _ ->
    all ();
    emit b (Call (Hashtbl.find funcs name, e.eaddr))

and compile_stmt b env funcs loop (stmt : Ast.stmt) =
  emit b (Stmt (stmt.saddr, stmt.sloc));
  match stmt.s with
  | Ast.Decl (x, e) ->
    compile_expr b env funcs e;
    emit b (Store (declare env x))
  | Ast.Assign (x, e) ->
    compile_expr b env funcs e;
    emit b (Store (lookup env x))
  | Ast.Store (p, i, e) ->
    compile_expr b env funcs p;
    compile_expr b env funcs i;
    compile_expr b env funcs e;
    emit b (Store_idx { addr = stmt.saddr; loc = stmt.sloc })
  | Ast.If (c, b1, b2) ->
    compile_expr b env funcs c;
    let to_else = emit_hole b (fun t -> Jz t) in
    compile_block b env funcs loop b1;
    let to_end = emit_hole b (fun t -> Jmp t) in
    patch b to_else (here b);
    compile_block b env funcs loop b2;
    patch b to_end (here b)
  | Ast.While (c, body) ->
    (* statement cost charged once on entry (above), not per iteration *)
    let l_cond = here b in
    compile_expr b env funcs c;
    let to_end = emit_hole b (fun t -> Jz t) in
    let ctx = { breaks = []; continue_to = Some l_cond; continues = [] } in
    compile_block b env funcs (Some ctx) body;
    emit b (Jmp l_cond);
    let l_end = here b in
    patch b to_end l_end;
    List.iter (fun at -> patch b at l_end) ctx.breaks
  | Ast.For (init, cond, step, body) ->
    push_scope env;
    compile_stmt b env funcs None init;
    let l_cond = here b in
    compile_expr b env funcs cond;
    let to_end = emit_hole b (fun t -> Jz t) in
    (* continue jumps to the step statement, not the condition *)
    let ctx = { breaks = []; continue_to = None; continues = [] } in
    compile_block b env funcs (Some ctx) body;
    let l_step = here b in
    List.iter (fun at -> patch b at l_step) ctx.continues;
    compile_stmt b env funcs None step;
    emit b (Jmp l_cond);
    let l_end = here b in
    patch b to_end l_end;
    List.iter (fun at -> patch b at l_end) ctx.breaks;
    pop_scope env
  | Ast.Return None ->
    emit b (Push 0);
    emit b Ret
  | Ast.Return (Some e) ->
    compile_expr b env funcs e;
    emit b Ret
  | Ast.Break -> (
    match loop with
    | Some ctx -> ctx.breaks <- emit_hole b (fun t -> Jmp t) :: ctx.breaks
    | None -> invalid_arg "Compile: break outside loop" (* Sema-checked *))
  | Ast.Continue -> (
    match loop with
    | Some ctx -> (
      match ctx.continue_to with
      | Some target -> emit b (Jmp target)
      | None -> ctx.continues <- emit_hole b (fun t -> Jmp t) :: ctx.continues)
    | None -> invalid_arg "Compile: continue outside loop")
  | Ast.Expr e ->
    compile_expr b env funcs e;
    emit b Pop

and compile_block b env funcs loop stmts =
  push_scope env;
  List.iter (compile_stmt b env funcs loop) stmts;
  pop_scope env

(* The counted-descent rewrite (see the header): [fi]'s code, already
   peepholed, is exactly its guard, its step, the pass-through loads,
   the self-call and the [Ret], so only the guard changes. *)
let descent b (fi : func_info) =
  let e = fi.fi_entry and n = fi.fi_nargs in
  let call = max n 2 in
  let at j = if e + j < b.len then b.arr.(e + j) else Pop in
  let rec loads j = j >= call || (at j = Load (j - 1) && loads (j + 1)) in
  let self_call = function
    | Call (f, site) when n = 1 && f == fi -> Some site
    | Call_l (s, f, site) when n >= 2 && s = n - 1 && f == fi -> Some site
    | _ -> None
  in
  match (at 0, at 1, self_call (at call), at (call + 1)) with
  | ( Stmt_jz_si (saddr, loc, TGt, 0, c, target),
      Stmt_bin_si (step_saddr, _, TSub, 0, k),
      Some callsite,
      Ret )
    when c >= 0 && k >= 1 && loads 2 ->
    b.arr.(e) <-
      Descent
        { saddr; loc; c; target; step_saddr; k; callee = fi; callsite;
          resume = e + call + 1 }
  | _ -> ()

let compile (program : Program.t) : code =
  let order = Program.functions program in
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      let nargs = List.length f.params in
      Hashtbl.replace funcs f.fname
        { fi_name = f.fname;
          fi_addr = f.faddr;
          fi_nargs = nargs;
          fi_nslots = nargs + Ast.count_decls f.body;
          fi_frame_bytes = Program.frame_size program f.fname;
          fi_entry = -1;
          fi_max_stack = 0 })
    order;
  let b =
    { arr = Array.make 256 Pop; len = 0; depth = 0; max_depth = 0; barrier = 0 }
  in
  List.iter
    (fun (f : Ast.func) ->
      let fi = Hashtbl.find funcs f.fname in
      fi.fi_entry <- here b;
      b.depth <- 0;
      b.max_depth <- 0;
      let env = { scopes = []; next_slot = 0 } in
      push_scope env;
      List.iter (fun p -> ignore (declare env p)) f.params;
      compile_block b env funcs None f.body;
      (* falling off the end returns 0, as the interpreter's [Normal] does *)
      emit b (Push 0);
      emit b Ret;
      descent b fi;
      fi.fi_max_stack <- b.max_depth;
      assert (env.next_slot = fi.fi_nslots))
    order;
  { instrs = Array.sub b.arr 0 b.len; funcs }

type Program.cached += Code of code

(* Compile-once accessor.  Compilation is deterministic; a benign race
   between domains repeats the work but both results are equivalent, and
   each run threads a single consistent [code] value. *)
let get (program : Program.t) : code =
  match Program.compiled program with
  | Some (Code c) -> c
  | _ ->
    let c = compile program in
    Program.set_compiled program (Code c);
    c
