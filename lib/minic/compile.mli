(** MiniC AST -> flat bytecode.

    Compilation resolves every variable to a static frame slot (Sema has
    already proven the program well-scoped), turns structured control flow
    into precomputed jump targets, and stamps each effectful instruction
    with the code address and source location the interpreter would have
    used — so the VM can replay the interpreter's machine interaction
    bit-identically.  Compiled code is immutable once built and is cached
    on the {!Program} via {!get}.

    A peephole fuses hot adjacent instructions into superinstructions
    ([Bin_si] and friends, [Jz_si], [Stmt_load], [Stmt_bin_si],
    [Stmt_jz_si], [Call_l]).  No fusion absorbs a jump target, and each
    superinstruction runs its parts in their original order.

    After the peephole, the guard of a self-recursive wrapper
    [fn f(p0, ..., pn-1) { if (p0 > c) { return f(p0 - k, p1, ..., pn-1); } ...}]
    (constants [c >= 0], [k >= 1], the guard the body's first statement,
    the arguments in order) becomes a {!Descent}: the VM runs the whole
    descent as one instruction that pushes one run frame for all of its
    levels, and falls back to the plain guard a level at a time when the
    step limit or the next telemetry snapshot boundary falls inside it. *)

type site = { addr : int; loc : Srcloc.t }

type print_part = Lit of string | Val

type func_info = {
  fi_name : string;
  fi_addr : int;          (** function entry code address *)
  fi_nargs : int;
  fi_nslots : int;        (** parameters + declaration sites *)
  fi_frame_bytes : int;   (** simulated stack bytes per activation *)
  mutable fi_entry : int; (** instruction index of the compiled body *)
  mutable fi_max_stack : int;
      (** bound on operand-stack growth while the function's own code runs;
          lets the VM check capacity once per call *)
}

type binop_tag =
  | TAdd | TSub | TMul
  | TLt | TLe | TGt | TGe | TEq | TNe
  | TBand | TBor | TBxor | TShl | TShr
(** Operator tag carried by the fused operand-mode instructions; Div/Mod
    are excluded (they carry a source location for the zero check). *)

type instr =
  | Stmt of int * Srcloc.t
  | Jmp of int
  | Jz of int
  | Jnz of int
  | Call of func_info * int
  | Spawn of func_info * int
  | Ret
  | Push of int
  | Pop
  | Load of int
  | Store of int
  | Neg
  | Not
  | Bool
  | Add | Sub | Mul
  | Div of Srcloc.t
  | Mod of Srcloc.t
  | Lt | Le | Gt | Ge | Eq | Ne
  | Band | Bor | Bxor | Shl | Shr
  | Bin_si of binop_tag * int * int
  | Bin_is of binop_tag * int * int
  | Bin_ss of binop_tag * int * int
  | Bin_ti of binop_tag * int
  | Bin_ts of binop_tag * int
  | Jz_si of binop_tag * int * int * int
      (** [Bin_si (tag, s, n)] then [Jz t]: branch on [locals[s] op n] *)
  | Stmt_load of int * Srcloc.t * int  (** [Stmt] then [Load] *)
  | Stmt_bin_si of int * Srcloc.t * binop_tag * int * int
      (** [Stmt] then [Bin_si] *)
  | Stmt_jz_si of int * Srcloc.t * binop_tag * int * int * int
      (** [Stmt] then [Jz_si] *)
  | Call_l of int * func_info * int
      (** [Load slot] then [Call (callee, callsite)] *)
  | Descent of descent
      (** [Stmt_jz_si (saddr, loc, TGt, 0, c, target)] at the entry of a
          self-recursive wrapper *)
  | Index of site
  | Store_idx of site
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
  | Str_err of Srcloc.t

and descent = {
  saddr : int;
  loc : Srcloc.t;
  c : int;            (** the guard is [p0 > c] *)
  target : int;       (** where the guard jumps when [p0 <= c] *)
  step_saddr : int;   (** the [return]'s statement address *)
  k : int;            (** each level passes [p0 - k] *)
  callee : func_info; (** the wrapper itself *)
  callsite : int;     (** the self-call's call site *)
  resume : int;       (** the self-call's resume index: the [Ret] *)
}

type code = {
  instrs : instr array;
  funcs : (string, func_info) Hashtbl.t;
}

type Program.cached += Code of code

val get : Program.t -> code
(** Compile once and cache on the program.  Deterministic, so a cross-domain
    race merely repeats work; see {!Engine.precompile} for eager warmup. *)
