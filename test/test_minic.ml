(* Tests for the MiniC language: lexer, parser, static checks, program
   loading/symbolization, and the interpreter. *)

let toks src = List.map (fun t -> t.Token.tok) (Lexer.tokenize ~file:"t.mc" src)

(* ---------- Lexer ---------- *)

let test_lex_numbers () =
  Alcotest.(check bool) "decimal" true (toks "42" = [ Token.INT 42; Token.EOF ]);
  Alcotest.(check bool) "hex" true (toks "0x1F" = [ Token.INT 31; Token.EOF ]);
  Alcotest.(check bool) "zero" true (toks "0" = [ Token.INT 0; Token.EOF ])

let test_lex_idents_keywords () =
  Alcotest.(check bool) "keyword vs ident" true
    (toks "fn fnord var varx"
    = [ Token.KW_FN; Token.IDENT "fnord"; Token.KW_VAR; Token.IDENT "varx"; Token.EOF ]);
  Alcotest.(check bool) "underscore ident" true
    (toks "_x9" = [ Token.IDENT "_x9"; Token.EOF ])

let test_lex_operators () =
  Alcotest.(check bool) "compound ops" true
    (toks "<= >= == != && || << >>"
    = [ Token.LE; Token.GE; Token.EQ; Token.NE; Token.AND; Token.OR; Token.SHL;
        Token.SHR; Token.EOF ]);
  Alcotest.(check bool) "single-char after lookahead" true
    (toks "< = ! & |"
    = [ Token.LT; Token.ASSIGN; Token.NOT; Token.AMP; Token.PIPE; Token.EOF ])

let test_lex_strings () =
  Alcotest.(check bool) "escapes" true
    (toks {|"a\nb\"c\\"|} = [ Token.STRING "a\nb\"c\\"; Token.EOF ])

let test_lex_comments () =
  Alcotest.(check bool) "line and block comments" true
    (toks "1 // comment\n/* multi\nline */ 2" = [ Token.INT 1; Token.INT 2; Token.EOF ])

let test_lex_locations () =
  let spanned = Lexer.tokenize ~file:"t.mc" "1\n  2" in
  (match spanned with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "line 1" 1 a.Token.loc.Srcloc.line;
    Alcotest.(check int) "line 2" 2 b.Token.loc.Srcloc.line;
    Alcotest.(check int) "col 3" 3 b.Token.loc.Srcloc.col
  | _ -> Alcotest.fail "expected three tokens")

let lex_fails src =
  try
    ignore (toks src);
    false
  with Lexer.Lex_error _ -> true

let test_lex_errors () =
  Alcotest.(check bool) "bad char" true (lex_fails "@");
  Alcotest.(check bool) "unterminated string" true (lex_fails "\"abc");
  Alcotest.(check bool) "unterminated comment" true (lex_fails "/* abc");
  Alcotest.(check bool) "bad escape" true (lex_fails {|"\q"|});
  Alcotest.(check bool) "bare hex prefix" true (lex_fails "0x")

(* ---------- Parser ---------- *)

let parse_main body =
  let counter = ref 0x1000 in
  Parser.parse_unit ~counter ~file:"t.mc" ~module_name:"t"
    (Printf.sprintf "fn main() { %s }" body)

let main_body src =
  match parse_main src with
  | [ f ] -> f.Ast.body
  | _ -> Alcotest.fail "expected one function"

let rec expr_str (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int n -> string_of_int n
  | Ast.Str s -> Printf.sprintf "%S" s
  | Ast.Var x -> x
  | Ast.Unop (Ast.Neg, a) -> Printf.sprintf "(- %s)" (expr_str a)
  | Ast.Unop (Ast.Not, a) -> Printf.sprintf "(! %s)" (expr_str a)
  | Ast.Binop (op, a, b) ->
    let o =
      match op with
      | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/"
      | Ast.Mod -> "%" | Ast.Lt -> "<" | Ast.Le -> "<=" | Ast.Gt -> ">"
      | Ast.Ge -> ">=" | Ast.Eq -> "==" | Ast.Ne -> "!=" | Ast.LAnd -> "&&"
      | Ast.LOr -> "||" | Ast.BAnd -> "&" | Ast.BOr -> "|" | Ast.BXor -> "^"
      | Ast.Shl -> "<<" | Ast.Shr -> ">>"
    in
    Printf.sprintf "(%s %s %s)" o (expr_str a) (expr_str b)
  | Ast.Call (f, args) ->
    Printf.sprintf "(%s %s)" f (String.concat " " (List.map expr_str args))
  | Ast.Index (p, i) -> Printf.sprintf "(idx %s %s)" (expr_str p) (expr_str i)

let first_expr body =
  match body with
  | { Ast.s = Ast.Decl (_, e); _ } :: _ -> e
  | { Ast.s = Ast.Expr e; _ } :: _ -> e
  | _ -> Alcotest.fail "expected decl/expr statement"

let check_parse expected src =
  let e = first_expr (main_body ("var x = " ^ src ^ ";")) in
  Alcotest.(check string) src expected (expr_str e)

let test_parse_precedence () =
  check_parse "(+ 1 (* 2 3))" "1 + 2 * 3";
  check_parse "(* (+ 1 2) 3)" "(1 + 2) * 3";
  check_parse "(- (- 1 2) 3)" "1 - 2 - 3";
  check_parse "(|| (&& a b) c)" "a && b || c";
  check_parse "(== (+ a 1) (<< b 2))" "a + 1 == b << 2";
  check_parse "(| a (& b c))" "a | b & c";
  check_parse "(- (! x))" "-!x";
  check_parse "(idx (idx p 1) 2)" "p[1][2]";
  check_parse "(f a (+ b 1))" "f(a, b + 1)"

let test_parse_statements () =
  let body =
    main_body
      "var i = 0; if (i) { i = 1; } else { i = 2; } while (i < 3) { i = i + 1; } \
       for (var j = 0; j < 4; j = j + 1) { continue; } return i;"
  in
  let kinds =
    List.map
      (fun (s : Ast.stmt) ->
        match s.Ast.s with
        | Ast.Decl _ -> "decl" | Ast.If _ -> "if" | Ast.While _ -> "while"
        | Ast.For _ -> "for" | Ast.Return _ -> "return" | _ -> "other")
      body
  in
  Alcotest.(check (list string)) "statement kinds"
    [ "decl"; "if"; "while"; "for"; "return" ] kinds

let test_parse_else_if () =
  let body = main_body "var i = 0; if (i) { } else if (i - 1) { } else { i = 9; }" in
  match body with
  | [ _; { Ast.s = Ast.If (_, _, [ { Ast.s = Ast.If (_, _, else2); _ } ]); _ } ] ->
    Alcotest.(check int) "else-if chain" 1 (List.length else2)
  | _ -> Alcotest.fail "expected nested if in else"

let test_parse_store () =
  let body = main_body "var p = 0; p[2] = 7;" in
  match body with
  | [ _; { Ast.s = Ast.Store (_, idx, v); _ } ] ->
    Alcotest.(check string) "index" "2" (expr_str idx);
    Alcotest.(check string) "value" "7" (expr_str v)
  | _ -> Alcotest.fail "expected store statement"

let parse_fails src =
  try
    ignore (parse_main src);
    false
  with Parser.Parse_error _ -> true

let test_parse_errors () =
  Alcotest.(check bool) "missing semicolon" true (parse_fails "var x = 1");
  Alcotest.(check bool) "bad assignment target" true (parse_fails "1 + 2 = 3;");
  Alcotest.(check bool) "unclosed paren" true (parse_fails "var x = (1;");
  Alcotest.(check bool) "missing brace" true
    (try
       ignore
         (Parser.parse_unit ~counter:(ref 0) ~file:"t" ~module_name:"t" "fn f( {}");
       false
     with Parser.Parse_error _ -> true)

let test_parse_unique_addrs () =
  let fs = parse_main "var a = 1 + 2; var b = a * 3;" in
  let addrs = ref [] in
  List.iter
    (fun (f : Ast.func) ->
      addrs := f.Ast.faddr :: !addrs;
      Ast.iter_stmts (fun s -> addrs := s.Ast.saddr :: !addrs) f.Ast.body;
      Ast.iter_exprs (fun e -> addrs := e.Ast.eaddr :: !addrs) f.Ast.body)
    fs;
  let sorted = List.sort_uniq compare !addrs in
  Alcotest.(check int) "all code addresses distinct" (List.length !addrs)
    (List.length sorted)

(* ---------- Sema ---------- *)

let sema_errors src =
  let counter = ref 0 in
  let funcs = Parser.parse_unit ~counter ~file:"t.mc" ~module_name:"t" src in
  Sema.check funcs

let has_error fragment errs =
  List.exists
    (fun (msg, _) ->
      let nl = String.length fragment and hl = String.length msg in
      let rec go i = i + nl <= hl && (String.sub msg i nl = fragment || go (i + 1)) in
      go 0)
    errs

let test_sema_ok () =
  Alcotest.(check int) "clean program" 0
    (List.length
       (sema_errors
          "fn add(a, b) { return a + b; }\n\
           fn main() { var x = add(1, 2); print(\"x\", x); return x; }"))

let test_sema_errors () =
  Alcotest.(check bool) "missing main" true
    (has_error "no 'main'" (sema_errors "fn f() { return 0; }"));
  Alcotest.(check bool) "main with params" true
    (has_error "must take no parameters" (sema_errors "fn main(x) { return x; }"));
  Alcotest.(check bool) "duplicate function" true
    (has_error "duplicate function"
       (sema_errors "fn main() { return 0; }\nfn main() { return 1; }"));
  Alcotest.(check bool) "undefined call" true
    (has_error "undefined function 'nope'" (sema_errors "fn main() { nope(); return 0; }"));
  Alcotest.(check bool) "arity" true
    (has_error "expects 1 argument"
       (sema_errors "fn f(a) { return a; }\nfn main() { return f(1, 2); }"));
  Alcotest.(check bool) "builtin arity" true
    (has_error "builtin 'malloc'" (sema_errors "fn main() { var p = malloc(); return 0; }"));
  Alcotest.(check bool) "undeclared use" true
    (has_error "undeclared variable 'y'" (sema_errors "fn main() { return y; }"));
  Alcotest.(check bool) "undeclared assign" true
    (has_error "assignment to undeclared" (sema_errors "fn main() { z = 1; return 0; }"));
  Alcotest.(check bool) "duplicate decl same scope" true
    (has_error "duplicate declaration"
       (sema_errors "fn main() { var a = 1; var a = 2; return a; }"));
  Alcotest.(check bool) "break outside loop" true
    (has_error "'break' outside" (sema_errors "fn main() { break; return 0; }"));
  Alcotest.(check bool) "continue outside loop" true
    (has_error "'continue' outside" (sema_errors "fn main() { continue; return 0; }"));
  Alcotest.(check bool) "stray string" true
    (has_error "string literal" (sema_errors "fn main() { var s = \"oops\"; return 0; }"));
  Alcotest.(check bool) "spawn of unknown" true
    (has_error "spawn of undefined"
       (sema_errors "fn main() { spawn(\"ghost\"); return 0; }"));
  Alcotest.(check bool) "spawn arg mismatch" true
    (has_error "spawn target"
       (sema_errors "fn w(a) { return a; }\nfn main() { spawn(\"w\"); return 0; }"));
  Alcotest.(check bool) "spawn needs string" true
    (has_error "first argument of spawn"
       (sema_errors "fn main() { var f = 1; spawn(f); return 0; }"))

let test_sema_scoping () =
  (* shadowing in a nested scope is legal; for-init vars visible in body *)
  Alcotest.(check int) "shadowing ok" 0
    (List.length
       (sema_errors
          "fn main() { var a = 1; if (a) { var a = 2; a = a + 1; } \
           for (var i = 0; i < 3; i = i + 1) { var t = i; t = t; } return a; }"));
  (* ...but a for-init variable is out of scope afterwards *)
  Alcotest.(check bool) "for var escapes" true
    (has_error "undeclared"
       (sema_errors
          "fn main() { for (var i = 0; i < 3; i = i + 1) { } return i; }"))

(* ---------- Program loading and symbolization ---------- *)

let test_program_load_and_symbolize () =
  let p =
    Program.load_exn
      [ { Program.file = "app.c"; module_name = "app";
          source = "fn main() { var r = helper(4); return r; }" };
        { Program.file = "lib.c"; module_name = "libx";
          source = "fn helper(n) { return n * 2; }" } ]
  in
  let main = Option.get (Program.func p "main") in
  let helper = Option.get (Program.func p "helper") in
  Alcotest.(check bool) "symbolize main entry" true
    (Program.symbolize p main.Ast.faddr = "app.c:1 (main)");
  Alcotest.(check bool) "symbolize helper" true
    (Program.symbolize p helper.Ast.faddr = "lib.c:1 (helper)");
  Alcotest.(check (option string)) "module lookup" (Some "libx")
    (Program.module_of_addr p helper.Ast.faddr);
  Alcotest.(check string) "unknown address falls back to hex" "0xdead"
    (Program.symbolize p 0xDEAD);
  Alcotest.(check int) "frame size: 1 param, 0 decls" (32 + 8)
    (Program.frame_size p "helper");
  Alcotest.(check int) "frame size: 0 params, 1 decl" (32 + 8)
    (Program.frame_size p "main");
  Alcotest.(check bool) "source lines counted" true (Program.total_source_lines p >= 2)

let test_program_load_errors () =
  (match Program.load [ { Program.file = "x.c"; module_name = "x"; source = "fn main() {" } ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error must be reported");
  match Program.load [ { Program.file = "x.c"; module_name = "x"; source = "fn f() { return zz; }" } ] with
  | Error errs -> Alcotest.(check bool) "multiple sema errors" true (List.length errs >= 2)
  | Ok _ -> Alcotest.fail "sema errors must be reported"

(* ---------- Interpreter ---------- *)

let run_src ?(inputs = [||]) ?tool src =
  let machine = Machine.create ~seed:1 () in
  let heap = Heap.create machine in
  let tool = match tool with Some t -> t machine heap | None -> Tool.baseline heap in
  let program =
    Program.load_exn [ { Program.file = "t.mc"; module_name = "t"; source = src } ]
  in
  Interp.run ~machine ~tool ~program ~inputs ()

let test_interp_arith () =
  let r = run_src "fn main() { return (2 + 3) * 4 - 20 / 2 + (17 % 5); }" in
  Alcotest.(check int) "arith" 12 r.Interp.return_value;
  let r = run_src "fn main() { return (1 << 4) + (256 >> 2) + (6 & 3) + (4 | 1) + (5 ^ 1); }" in
  Alcotest.(check int) "bitwise" (16 + 64 + 2 + 5 + 4) r.Interp.return_value

let test_interp_logic () =
  let r =
    run_src
      "fn boom() { return 1 / 0; }\n\
       fn main() { if (0 && boom()) { return 1; } if (1 || boom()) { return 2; } return 3; }"
  in
  Alcotest.(check int) "short-circuit avoids division by zero" 2 r.Interp.return_value

let test_interp_control () =
  let r =
    run_src
      "fn main() { var s = 0; for (var i = 0; i < 10; i = i + 1) { \
       if (i == 3) { continue; } if (i == 7) { break; } s = s + i; } return s; }"
  in
  Alcotest.(check int) "loop with break/continue" (0 + 1 + 2 + 4 + 5 + 6)
    r.Interp.return_value

let test_interp_recursion () =
  let r = run_src "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }\nfn main() { return fib(15); }" in
  Alcotest.(check int) "fib 15" 610 r.Interp.return_value

let test_interp_memory () =
  let r =
    run_src
      "fn main() { var p = malloc(64); p[0] = 11; p[7] = 22; store8(p, 9, 255); \
       var v = p[0] + p[7] + load8(p, 9); free(p); return v; }"
  in
  Alcotest.(check int) "word and byte accesses" (11 + 22 + 255) r.Interp.return_value

let test_interp_memcpy_memset () =
  let r =
    run_src
      "fn main() { var a = malloc(32); var b = malloc(32); memset(a, 7, 32); \
       memcpy(b, a, 32); var v = load8(b, 0) + load8(b, 31); free(a); free(b); return v; }"
  in
  Alcotest.(check int) "memset+memcpy" 14 r.Interp.return_value

let test_interp_print_and_inputs () =
  let r =
    run_src ~inputs:[| 41; 1 |]
      "fn main() { print(\"sum:\", input(0) + input(1), \"of\", input_len()); return 0; }"
  in
  Alcotest.(check string) "print output" "sum: 42 of 2\n" r.Interp.output

let test_interp_rand_deterministic () =
  let src = "fn main() { return rand(1000) + rand(1000); }" in
  let a = run_src src and b = run_src src in
  Alcotest.(check int) "same app seed, same stream" a.Interp.return_value
    b.Interp.return_value

let test_interp_spawn () =
  let machine = Machine.create ~seed:1 () in
  let heap = Heap.create machine in
  let program =
    Program.load_exn
      [ { Program.file = "t.mc"; module_name = "t";
          source =
            "fn worker(n) { return n * 2; }\n\
             fn main() { var a = spawn(\"worker\", 21); return a; }" } ]
  in
  let r = Interp.run ~machine ~tool:(Tool.baseline heap) ~program () in
  Alcotest.(check int) "spawn returns worker result" 42 r.Interp.return_value;
  (* the spawned thread exited again *)
  Alcotest.(check int) "only main alive" 1 (Threads.alive_count (Machine.threads machine))

let expect_runtime_error src =
  try
    ignore (run_src src);
    Alcotest.fail "expected a runtime error"
  with Interp.Runtime_error _ -> ()

let test_interp_runtime_errors () =
  expect_runtime_error "fn main() { return 1 / 0; }";
  expect_runtime_error "fn main() { return 1 % 0; }";
  expect_runtime_error "fn main() { return input(0); }";
  expect_runtime_error "fn main() { var p = malloc(0 - 8); return 0; }";
  expect_runtime_error "fn main() { return rand(0); }";
  expect_runtime_error "fn main() { sleep_ms(0 - 1); return 0; }";
  expect_runtime_error "fn main() { var p = 0 - 5; return p[0]; }"

let test_interp_step_limit () =
  let machine = Machine.create ~seed:1 () in
  let heap = Heap.create machine in
  let program =
    Program.load_exn
      [ { Program.file = "t.mc"; module_name = "t";
          source = "fn main() { var i = 0; while (1) { i = i + 1; } return i; }" } ]
  in
  try
    ignore
      (Interp.run ~machine ~tool:(Tool.baseline heap) ~program ~step_limit:1000 ());
    Alcotest.fail "expected step-limit error"
  with Interp.Runtime_error (msg, _) ->
    Alcotest.(check bool) "mentions step limit" true
      (String.length msg >= 10 && String.sub msg 0 10 = "step limit")

let test_interp_on_access_channel () =
  (* every word/byte access is announced to the tool with a code site *)
  let count = ref 0 in
  let mk machine heap =
    ignore machine;
    let base = Tool.baseline heap in
    { base with Tool.on_access = (fun ~addr:_ ~len:_ ~kind:_ ~site:_ -> incr count) }
  in
  let _ =
    run_src ~tool:mk
      "fn main() { var p = malloc(16); p[0] = 1; var v = p[0]; store8(p, 1, 2); \
       var w = load8(p, 1); free(p); return v + w; }"
  in
  Alcotest.(check int) "four announced accesses" 4 !count

let suite =
  [ Alcotest.test_case "lex numbers" `Quick test_lex_numbers;
    Alcotest.test_case "lex idents/keywords" `Quick test_lex_idents_keywords;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex strings" `Quick test_lex_strings;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex locations" `Quick test_lex_locations;
    Alcotest.test_case "lex errors" `Quick test_lex_errors;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse statements" `Quick test_parse_statements;
    Alcotest.test_case "parse else-if" `Quick test_parse_else_if;
    Alcotest.test_case "parse store" `Quick test_parse_store;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "unique code addresses" `Quick test_parse_unique_addrs;
    Alcotest.test_case "sema accepts clean program" `Quick test_sema_ok;
    Alcotest.test_case "sema error catalogue" `Quick test_sema_errors;
    Alcotest.test_case "sema scoping" `Quick test_sema_scoping;
    Alcotest.test_case "program load + symbolize" `Quick test_program_load_and_symbolize;
    Alcotest.test_case "program load errors" `Quick test_program_load_errors;
    Alcotest.test_case "interp arithmetic" `Quick test_interp_arith;
    Alcotest.test_case "interp short-circuit" `Quick test_interp_logic;
    Alcotest.test_case "interp control flow" `Quick test_interp_control;
    Alcotest.test_case "interp recursion" `Quick test_interp_recursion;
    Alcotest.test_case "interp memory" `Quick test_interp_memory;
    Alcotest.test_case "interp memcpy/memset" `Quick test_interp_memcpy_memset;
    Alcotest.test_case "interp print/input" `Quick test_interp_print_and_inputs;
    Alcotest.test_case "interp rand determinism" `Quick test_interp_rand_deterministic;
    Alcotest.test_case "interp spawn" `Quick test_interp_spawn;
    Alcotest.test_case "interp runtime errors" `Quick test_interp_runtime_errors;
    Alcotest.test_case "interp step limit" `Quick test_interp_step_limit;
    Alcotest.test_case "interp access channel" `Quick test_interp_on_access_channel ]

(* calloc builtin: zeroed memory even when the allocator recycles a dirty
   block *)
let test_interp_calloc () =
  let r =
    run_src
      "fn main() { var a = malloc(32); memset(a, 255, 32); free(a); \
       var b = calloc(4, 8); var v = load8(b, 0) + load8(b, 31) + b[2]; \
       free(b); return v; }"
  in
  Alcotest.(check int) "calloc zeroes recycled memory" 0 r.Interp.return_value

let suite = suite @ [ Alcotest.test_case "interp calloc" `Quick test_interp_calloc ]

(* extra semantic corners *)
let test_interp_corners () =
  let r = run_src "fn main() { while (1) { if (1) { return 7; } } return 0; }" in
  Alcotest.(check int) "return escapes nested blocks" 7 r.Interp.return_value;
  let r = run_src "fn main() { return (0 - 7) % 3; }" in
  Alcotest.(check int) "modulo keeps OCaml/C sign" (-1) r.Interp.return_value;
  let r = run_src "fn main() { return (0 - 7) / 2; }" in
  Alcotest.(check int) "division truncates toward zero" (-3) r.Interp.return_value;
  let r = run_src "fn f(a) { a = a + 1; return a; }\nfn main() { var x = 5; var y = f(x); return x * 100 + y; }" in
  Alcotest.(check int) "parameters are by value" 506 r.Interp.return_value;
  let r = run_src "fn main() { var n = 0; for (var i = 0; i < 3; i = i + 1) { for (var j = 0; j < 3; j = j + 1) { if (j == 1) { break; } n = n + 1; } } return n; }" in
  Alcotest.(check int) "break binds to inner loop" 3 r.Interp.return_value;
  let r = run_src "fn main() { var x = 1; if (x == 1) { var x = 2; x = x + 1; } return x; }" in
  Alcotest.(check int) "shadowing does not leak" 1 r.Interp.return_value

let test_interp_deep_recursion () =
  let r =
    run_src
      "fn down(n) { if (n == 0) { return 0; } return down(n - 1) + 1; }\n\
       fn main() { return down(5000); }"
  in
  Alcotest.(check int) "5000-deep recursion" 5000 r.Interp.return_value

let suite =
  suite
  @ [ Alcotest.test_case "interp corners" `Quick test_interp_corners;
      Alcotest.test_case "interp deep recursion" `Quick test_interp_deep_recursion ]

(* ---------- Bytecode VM ---------- *)

let run_engine ?(inputs = [||]) engine src =
  let machine = Machine.create ~seed:1 () in
  let heap = Heap.create machine in
  let program =
    Program.load_exn [ { Program.file = "t.mc"; module_name = "t"; source = src } ]
  in
  let r = Engine.run ~engine ~machine ~tool:(Tool.baseline heap) ~program ~inputs () in
  (r, Clock.cycles (Machine.clock machine))

(* The semantics programs above, one source each: replayed on the VM
   below, and the MiniC front-end fuzzer's seed corpus with the bundled
   apps' sources (test_decoders). *)
let semantics_corpus =
  [ "fn main() { return (2 + 3) * 4 - 20 / 2 + (17 % 5); }";
    "fn main() { return (1 << 4) + (256 >> 2) + (6 & 3) + (4 | 1) + (5 ^ 1); }";
    "fn boom() { return 1 / 0; }\n\
     fn main() { if (0 && boom()) { return 1; } if (1 || boom()) { return 2; } return 3; }";
    "fn main() { var s = 0; for (var i = 0; i < 10; i = i + 1) { \
     if (i == 3) { continue; } if (i == 7) { break; } s = s + i; } return s; }";
    "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }\n\
     fn main() { return fib(15); }";
    "fn main() { var p = malloc(64); p[0] = 11; p[7] = 22; store8(p, 9, 255); \
     var v = p[0] + p[7] + load8(p, 9); free(p); return v; }";
    "fn main() { var a = malloc(32); var b = malloc(32); memset(a, 7, 32); \
     memcpy(b, a, 32); var v = load8(b, 0) + load8(b, 31); free(a); free(b); return v; }";
    "fn main() { return rand(1000) + rand(1000); }";
    "fn worker(n) { return n * 2; }\n\
     fn main() { var a = spawn(\"worker\", 21); return a; }";
    "fn main() { var a = malloc(32); memset(a, 255, 32); free(a); \
     var b = calloc(4, 8); var v = load8(b, 0) + load8(b, 31) + b[2]; \
     free(b); return v; }";
    "fn main() { while (1) { if (1) { return 7; } } return 0; }";
    "fn main() { return (0 - 7) % 3; }";
    "fn main() { return (0 - 7) / 2; }";
    "fn f(a) { a = a + 1; return a; }\n\
     fn main() { var x = 5; var y = f(x); return x * 100 + y; }";
    "fn main() { var n = 0; for (var i = 0; i < 3; i = i + 1) { \
     for (var j = 0; j < 3; j = j + 1) { if (j == 1) { break; } n = n + 1; } } return n; }";
    "fn main() { var x = 1; if (x == 1) { var x = 2; x = x + 1; } return x; }";
    "fn down(n) { if (n == 0) { return 0; } return down(n - 1) + 1; }\n\
     fn main() { return down(5000); }" ]

(* Every semantics program, replayed on the VM: return value, output,
   step count and virtual-cycle total must match the interpreter exactly. *)
let test_vm_matches_interp () =
  List.iteri
    (fun i src ->
      let tag fmt = Printf.sprintf ("program %d " ^^ fmt) i in
      let ri, ci = run_engine Engine.Interp src in
      let rv, cv = run_engine Engine.Vm src in
      Alcotest.(check int) (tag "return value") ri.Interp.return_value rv.Interp.return_value;
      Alcotest.(check string) (tag "output") ri.Interp.output rv.Interp.output;
      Alcotest.(check int) (tag "steps") ri.Interp.steps rv.Interp.steps;
      Alcotest.(check int) (tag "cycles") ci cv)
    semantics_corpus

(* the VM raises the interpreter's error type with the same message *)
let test_vm_runtime_errors () =
  List.iter
    (fun src ->
      let msg engine =
        try
          ignore (run_engine engine src);
          Alcotest.fail "expected a runtime error"
        with Interp.Runtime_error (m, loc) -> Srcloc.to_string loc ^ ": " ^ m
      in
      Alcotest.(check string) src (msg Engine.Interp) (msg Engine.Vm))
    [ "fn main() { return 1 / 0; }";
      "fn main() { return 1 % 0; }";
      "fn main() { return input(0); }";
      "fn main() { var p = malloc(0 - 8); return 0; }";
      "fn main() { return rand(0); }";
      "fn main() { var p = 0 - 5; return p[0]; }";
      (* a wrapped count * size must not yield a small block *)
      "fn main() { var p = calloc(1 << 60, 16); return p; }" ]

(* [Machine.backtrace] outlives the run: after a normal return it is the
   pc alone, after a runtime error the pc and the faulting call chain, on
   both engines.  The VM's frame array goes back to a domain-local spare
   when the run ends, so each VM machine is asked again after another
   deep run has reused that array. *)
let test_vm_backtrace_after_run () =
  let deep_error =
    "fn down(n) { if (n == 0) { return 1 / 0; } return down(n - 1); }\n\
     fn main() { return down(300); }"
  in
  let after engine src =
    let machine = Machine.create ~seed:1 () in
    let program =
      Program.load_exn [ { Program.file = "t.mc"; module_name = "t"; source = src } ]
    in
    (try
       ignore
         (Engine.run ~engine ~machine ~tool:(Tool.baseline (Heap.create machine))
            ~program ())
     with Interp.Runtime_error _ -> ());
    machine
  in
  List.iter
    (fun (name, src) ->
      let mi = after Engine.Interp src and mv = after Engine.Vm src in
      let expected = Machine.backtrace mi in
      Alcotest.(check (list int)) (name ^ ": after the run") expected (Machine.backtrace mv);
      ignore (after Engine.Vm "fn d(n) { if (n == 0) { return 0; } return d(n - 1); }\n\
                               fn main() { return d(400); }");
      Alcotest.(check (list int)) (name ^ ": after another run reused the frames")
        expected (Machine.backtrace mv))
    [ ("return", "fn main() { var p = malloc(8); free(p); return 1; }");
      ("runtime error", deep_error) ];
  Alcotest.(check int) "error chain: pc, 301 frames of down, main" 303
    (List.length (Machine.backtrace (after Engine.Vm deep_error)))

(* Pinned repro for the planted vm-buggy-cycles bug, shrunk from the
   differential sweep's catch in test_prop.ml: one extra virtual cycle is
   charged per taken backward jump, so a 3-iteration while loop runs 3
   cycles hot on the buggy VM while agreeing everywhere else. *)
let test_vm_buggy_cycles_repro () =
  let src = "fn main() { var i = 0; while (i < 3) { i = i + 1; } return i; }" in
  let ri, ci = run_engine Engine.Interp src in
  let rv, cv = run_engine Engine.Vm src in
  Alcotest.(check int) "clean vm agrees on cycles" ci cv;
  Alcotest.(check int) "clean vm agrees on return" ri.Interp.return_value
    rv.Interp.return_value;
  let rb, cb = run_engine Engine.Vm_buggy_cycles src in
  Alcotest.(check int) "buggy vm still computes the right answer"
    ri.Interp.return_value rb.Interp.return_value;
  Alcotest.(check int) "one extra cycle per taken backward jump" (ci + 3) cb

(* The recursive allocation wrappers that dominate Heartbleed's and
   MySQL's dispatches compile to superinstructions, each guard to a
   counted descent, and every bundled app's static instruction count is
   pinned: a fusion that stops firing fails here, not only in the
   benchmark. *)
let op_name : Compile.instr -> string = function
  | Compile.Descent { Compile.c = 0; k = 1; callee; _ } ->
    "Descent d>0 d-1 " ^ callee.Compile.fi_name
  | Compile.Stmt_bin_si (_, _, Compile.TSub, 0, 1) -> "Stmt_bin_si d-1"
  | Compile.Call_l (1, f, _) -> "Call_l size " ^ f.Compile.fi_name
  | Compile.Call (f, _) -> "Call " ^ f.Compile.fi_name
  | Compile.Stmt_load (_, _, 1) -> "Stmt_load size"
  | Compile.Malloc _ -> "Malloc"
  | Compile.Ret -> "Ret"
  | Compile.Jmp _ -> "Jmp"
  | Compile.Push 0 -> "Push 0"
  | _ -> "other"

let test_vm_superinstruction_shapes () =
  let code app = Compile.get (Buggy_app.program (Option.get (Buggy_app.by_name app))) in
  let body app fname =
    let c = code app in
    let f = Hashtbl.find c.Compile.funcs fname in
    List.map op_name (Array.to_list (Array.sub c.Compile.instrs f.Compile.fi_entry 10))
  in
  let wrapper ~self ~leaf =
    [ "Descent d>0 d-1 " ^ self; "Stmt_bin_si d-1"; "Call_l size " ^ self; "Ret"; "Jmp";
      "Stmt_load size" ]
    @ leaf @ [ "Ret"; "Push 0"; "Ret" ]
  in
  Alcotest.(check (list string)) "bn_ctx_get"
    (wrapper ~self:"bn_ctx_get" ~leaf:[ "Call crypto_malloc" ])
    (body "heartbleed" "bn_ctx_get");
  Alcotest.(check (list string)) "my_malloc"
    (wrapper ~self:"my_malloc" ~leaf:[ "Malloc" ])
    (body "mysql" "my_malloc");
  Alcotest.(check (list (pair string int))) "static instruction counts"
    [ ("Gzip", 46); ("Heartbleed", 323); ("Libdwarf", 321); ("LibHX", 105);
      ("Libtiff", 52); ("Memcached", 288); ("MySQL", 291); ("Polymorph", 67);
      ("Zziplib", 287) ]
    (List.map
       (fun (app : Buggy_app.t) ->
         (app.Buggy_app.name, Array.length (code app.Buggy_app.name).Compile.instrs))
       (Buggy_app.all ()))

let suite =
  suite
  @ [ Alcotest.test_case "vm matches interp on semantics corpus" `Quick
        test_vm_matches_interp;
      Alcotest.test_case "vm superinstructions in the allocation wrappers" `Quick
        test_vm_superinstruction_shapes;
      Alcotest.test_case "vm runtime errors match interp" `Quick
        test_vm_runtime_errors;
      Alcotest.test_case "vm backtrace after return or error matches interp" `Quick
        test_vm_backtrace_after_run;
      Alcotest.test_case "vm-buggy-cycles pinned repro" `Quick
        test_vm_buggy_cycles_repro ]
