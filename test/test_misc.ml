(* Cross-cutting tests: paper constants, cost-model sanity, allocation
   contexts, builtins, perf profiles, and grammar round-trip properties. *)

(* ---------- Params: the paper's constants ---------- *)

let feq = Alcotest.float 1e-12

let test_paper_constants () =
  let p = Params.default in
  Alcotest.check feq "initial probability 50%" 0.5 p.Params.initial_prob;
  Alcotest.check feq "degradation 0.001% per allocation" 1e-5 p.Params.degrade_per_alloc;
  Alcotest.check feq "halving per watch" 0.5 p.Params.watch_decay_factor;
  Alcotest.check feq "floor 0.001%" 1e-5 p.Params.min_prob;
  Alcotest.(check int) "burst threshold 5000" 5000 p.Params.burst_threshold;
  Alcotest.check feq "burst window 10s" 10.0 p.Params.burst_window_sec;
  Alcotest.check feq "burst probability 0.0001%" 1e-6 p.Params.burst_prob;
  Alcotest.check feq "revive to 0.01%" 1e-4 p.Params.revive_prob;
  Alcotest.check feq "watchpoint half-life 10s" 10.0 p.Params.installed_halflife_sec;
  Alcotest.(check bool) "near-FIFO default" true (p.Params.policy = Params.Near_fifo);
  Alcotest.(check bool) "evidence on by default" true p.Params.evidence;
  Alcotest.(check string) "policy names" "naive/random/near-FIFO"
    (String.concat "/"
       (List.map Params.policy_name [ Params.Naive; Params.Random; Params.Near_fifo ]))

let test_cost_sanity () =
  Alcotest.(check bool) "syscalls dwarf ordinary work" true
    (Cost.syscall > 100 * Cost.memory_access);
  Alcotest.(check bool) "shadow check is cheap" true (Cost.shadow_check < 10);
  Alcotest.(check bool) "full backtrace is expensive" true
    (Cost.backtrace_full > 10 * Cost.context_lookup);
  Alcotest.(check bool) "trap delivery beats a syscall" true
    (Cost.trap_delivery > Cost.syscall);
  Alcotest.(check bool) "2.5 GHz clock" true (Cost.cycles_per_second = 2_500_000_000);
  Alcotest.(check bool) "tool init costs are one-time large" true
    (Cost.csod_init > 1_000_000 && Cost.asan_init > 1_000_000)

(* ---------- Alloc_ctx ---------- *)

let test_alloc_ctx () =
  let c = Alloc_ctx.synthetic ~stack_offset:24 ~callsite:0x400 () in
  Alcotest.(check (pair int int)) "key" (0x400, 24) (Alloc_ctx.key c);
  let chain = Alloc_ctx.chain 0 in
  c.Alloc_ctx.write chain;
  Alcotest.(check (list int)) "synthetic backtrace" [ 0x400 ]
    (Alloc_ctx.to_list chain ~off:0 ~len:chain.Alloc_ctx.len);
  let d = Alloc_ctx.synthetic ~callsite:7 () in
  Alcotest.(check int) "default offset" 0 d.Alloc_ctx.stack_offset

let test_baseline_tool () =
  let machine = Machine.create () in
  let heap = Heap.create machine in
  let tool = Tool.baseline heap in
  let ctx = Alloc_ctx.synthetic ~callsite:1 () in
  let p = tool.Tool.malloc ~size:40 ~ctx in
  Alcotest.(check bool) "allocates" true (Heap.is_live heap p);
  tool.Tool.on_access ~addr:p ~len:8 ~kind:Tool.Read ~site:0;
  tool.Tool.at_exit ();
  tool.Tool.free ~ptr:p;
  Alcotest.(check bool) "frees" false (Heap.is_live heap p);
  Alcotest.(check int) "no side memory" 0 (tool.Tool.extra_resident_bytes ());
  Alcotest.(check string) "name" "baseline" tool.Tool.name

(* ---------- Builtins ---------- *)

let test_builtins () =
  Alcotest.(check bool) "malloc known" true (Builtins.is_builtin "malloc");
  Alcotest.(check bool) "unknown" false (Builtins.is_builtin "mallocx");
  Alcotest.(check bool) "print variadic" true
    (Builtins.arity "print" = Some (Builtins.At_least 1));
  Alcotest.(check bool) "spawn 1..2" true
    (Builtins.arity "spawn" = Some (Builtins.Between (1, 2)));
  Alcotest.(check bool) "all entries well-formed" true
    (List.for_all (fun (name, _) -> name <> "" && Builtins.is_builtin name) Builtins.all)

(* ---------- Srcloc / Token ---------- *)

let test_srcloc_token () =
  let loc = Srcloc.v ~file:"a.c" ~line:12 ~col:3 in
  Alcotest.(check string) "srcloc renders file:line" "a.c:12" (Srcloc.to_string loc);
  Alcotest.(check string) "int token" "42" (Token.to_string (Token.INT 42));
  Alcotest.(check string) "string token quoted" "\"x\"" (Token.to_string (Token.STRING "x"));
  Alcotest.(check string) "keyword" "while" (Token.to_string Token.KW_WHILE);
  Alcotest.(check string) "operator" "<=" (Token.to_string Token.LE)

(* ---------- Perf profiles: Table IV data fidelity ---------- *)

let table4_expected =
  [ ("Blackscholes", 479, 4, 4); ("Bodytrack", 11_938, 81, 431_022);
    ("Canneal", 4_530, 10, 30_728_172); ("Dedup", 37_307, 93, 4_074_135);
    ("Facesim", 45_748, 109, 4_746_070); ("Ferret", 40_997, 118, 139_246);
    ("Fluidanimate", 880, 2, 229_910); ("Freqmine", 2_709, 125, 4_255);
    ("Raytrace", 36_871, 63, 45_037_327); ("Streamcluster", 2_043, 21, 8_861);
    ("Swaptions", 1_631, 10, 48_001_795); ("Vips", 206_059, 400, 1_425_257);
    ("X264", 33_817, 60, 35_753); ("Aget", 1_205, 14, 46);
    ("Apache", 269_126, 56, 357); ("Memcached", 14_748, 85, 468);
    ("MySQL", 1_290_401, 1_186, 1_565_311); ("Pbzip2", 12_108, 13, 57_746);
    ("Pfscan", 1_091, 6, 6) ]

let test_perf_profiles_table4 () =
  let ps = Perf_profile.all () in
  Alcotest.(check int) "nineteen applications" 19 (List.length ps);
  List.iter2
    (fun (p : Perf_profile.t) (name, loc, cc, allocs) ->
      Alcotest.(check string) "order" name p.Perf_profile.name;
      Alcotest.(check int) (name ^ " LOC") loc p.Perf_profile.loc;
      Alcotest.(check int) (name ^ " CC") cc p.Perf_profile.contexts;
      Alcotest.(check int) (name ^ " allocations") allocs p.Perf_profile.allocations)
    ps table4_expected

let test_perf_profiles_sane () =
  List.iter
    (fun (p : Perf_profile.t) ->
      Alcotest.(check bool) (p.Perf_profile.name ^ " live target positive") true
        (Perf_profile.live_target p >= 1);
      Alcotest.(check bool) (p.Perf_profile.name ^ " runtime positive") true
        (p.Perf_profile.runtime_sec > 0.0);
      Alcotest.(check bool) (p.Perf_profile.name ^ " hot <= contexts") true
        (p.Perf_profile.hot_contexts <= max 4 p.Perf_profile.contexts))
    (Perf_profile.all ());
  Alcotest.(check bool) "by_name works" true
    (Option.is_some (Perf_profile.by_name "canneal"));
  Alcotest.(check bool) "by_name misses" true (Perf_profile.by_name "doom" = None)

(* ---------- Lexer round-trip property ---------- *)

let token_gen =
  let open QCheck.Gen in
  oneof
    [ map (fun n -> Token.INT (abs n)) small_int;
      map
        (fun s -> Token.IDENT ("v" ^ String.concat "" (List.map string_of_int s)))
        (list_size (return 2) (int_bound 9));
      oneofl
        [ Token.KW_FN; Token.KW_VAR; Token.KW_IF; Token.KW_WHILE; Token.KW_RETURN;
          Token.LPAREN; Token.RPAREN; Token.LBRACE; Token.RBRACE; Token.COMMA;
          Token.SEMI; Token.ASSIGN; Token.PLUS; Token.MINUS; Token.STAR;
          Token.SLASH; Token.LT; Token.LE; Token.EQ; Token.NE; Token.AND;
          Token.OR ] ]

let prop_lexer_roundtrip =
  QCheck.Test.make ~name:"lexing a printed token stream yields it back" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 30) token_gen))
    (fun tokens ->
      let src = String.concat " " (List.map Token.to_string tokens) in
      let relexed =
        List.filter_map
          (fun t -> if t.Token.tok = Token.EOF then None else Some t.Token.tok)
          (Lexer.tokenize ~file:"gen.mc" src)
      in
      relexed = tokens)

(* ---------- Random arithmetic: interpreter vs OCaml ---------- *)

let rec gen_expr depth st =
  let open QCheck.Gen in
  if depth = 0 then (map (fun n -> string_of_int (1 + abs n mod 100)) small_int) st
  else
    (frequency
       [ (1, map (fun n -> string_of_int (1 + (abs n mod 100))) small_int);
         ( 3,
           map3
             (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
             (oneofl [ "+"; "-"; "*" ])
             (gen_expr (depth - 1))
             (gen_expr (depth - 1)) ) ])
      st

let rec eval_ocaml s =
  (* tiny evaluator over the generated fully-parenthesized strings *)
  let s = String.trim s in
  if s.[0] <> '(' then int_of_string s
  else begin
    (* strip parens: "(a op b)" where a and b may be nested *)
    let inner = String.sub s 1 (String.length s - 2) in
    (* split at the top-level operator *)
    let depth = ref 0 in
    let split = ref (-1) in
    String.iteri
      (fun i c ->
        match c with
        | '(' -> incr depth
        | ')' -> decr depth
        | ('+' | '-' | '*') when !depth = 0 && !split < 0 && i > 0 -> split := i
        | _ -> ())
      inner;
    let op = inner.[!split] in
    let a = eval_ocaml (String.sub inner 0 (!split - 1)) in
    let b = eval_ocaml (String.sub inner (!split + 2) (String.length inner - !split - 2)) in
    match op with '+' -> a + b | '-' -> a - b | '*' -> a * b | _ -> assert false
  end

let prop_interp_matches_ocaml =
  QCheck.Test.make ~name:"interpreter agrees with OCaml on arithmetic" ~count:100
    (QCheck.make (gen_expr 4))
    (fun src_expr ->
      let program =
        Program.load_exn
          [ { Program.file = "gen.mc"; module_name = "gen";
              source = Printf.sprintf "fn main() { return %s; }" src_expr } ]
      in
      let machine = Machine.create () in
      let heap = Heap.create machine in
      let r = Interp.run ~machine ~tool:(Tool.baseline heap) ~program () in
      r.Interp.return_value = eval_ocaml src_expr)

let suite =
  [ Alcotest.test_case "paper constants" `Quick test_paper_constants;
    Alcotest.test_case "cost-model sanity" `Quick test_cost_sanity;
    Alcotest.test_case "allocation contexts" `Quick test_alloc_ctx;
    Alcotest.test_case "baseline tool" `Quick test_baseline_tool;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "srcloc and tokens" `Quick test_srcloc_token;
    Alcotest.test_case "perf profiles: Table IV data" `Quick test_perf_profiles_table4;
    Alcotest.test_case "perf profiles: sanity" `Quick test_perf_profiles_sane;
    QCheck_alcotest.to_alcotest prop_lexer_roundtrip;
    QCheck_alcotest.to_alcotest prop_interp_matches_ocaml ]
