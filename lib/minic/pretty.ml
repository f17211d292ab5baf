(* Precedence levels mirror Parser.binop_of_tok: higher binds tighter. *)
let prec = function
  | Ast.LOr -> 1
  | Ast.LAnd -> 2
  | Ast.BOr -> 3
  | Ast.BXor -> 4
  | Ast.BAnd -> 5
  | Ast.Eq | Ast.Ne -> 6
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 7
  | Ast.Shl | Ast.Shr -> 8
  | Ast.Add | Ast.Sub -> 9
  | Ast.Mul | Ast.Div | Ast.Mod -> 10

let op_str = function
  | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/"
  | Ast.Mod -> "%" | Ast.Lt -> "<" | Ast.Le -> "<=" | Ast.Gt -> ">"
  | Ast.Ge -> ">=" | Ast.Eq -> "==" | Ast.Ne -> "!=" | Ast.LAnd -> "&&"
  | Ast.LOr -> "||" | Ast.BAnd -> "&" | Ast.BOr -> "|" | Ast.BXor -> "^"
  | Ast.Shl -> "<<" | Ast.Shr -> ">>"

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [ctx] is the minimal precedence this position accepts without parens;
   binary operators are left-associative, so the right operand of a
   same-precedence operator needs one level more. *)
let rec pp_expr ctx ppf (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int n ->
    if n < 0 then Format.fprintf ppf "(0 - %d)" (-n) else Format.pp_print_int ppf n
  | Ast.Str s -> Format.fprintf ppf "\"%s\"" (escape s)
  | Ast.Var x -> Format.pp_print_string ppf x
  | Ast.Unop (op, a) ->
    let s = match op with Ast.Neg -> "-" | Ast.Not -> "!" in
    let body ppf () = Format.fprintf ppf "%s%a" s (pp_expr 11) a in
    if ctx > 11 then Format.fprintf ppf "(%a)" body () else body ppf ()
  | Ast.Binop (op, a, b) ->
    let p = prec op in
    let body ppf () =
      Format.fprintf ppf "%a %s %a" (pp_expr p) a (op_str op) (pp_expr (p + 1)) b
    in
    if p < ctx then Format.fprintf ppf "(%a)" body () else body ppf ()
  | Ast.Call (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (pp_expr 1))
      args
  | Ast.Index (p, i) ->
    Format.fprintf ppf "%a[%a]" (pp_expr 12) p (pp_expr 1) i

let expr ppf e = pp_expr 1 ppf e

let rec pp_stmt indent ppf (s : Ast.stmt) =
  let pad = String.make indent ' ' in
  match s.Ast.s with
  | Ast.Decl (x, e) -> Format.fprintf ppf "%svar %s = %a;" pad x expr e
  | Ast.Assign (x, e) -> Format.fprintf ppf "%s%s = %a;" pad x expr e
  | Ast.Store (p, i, v) ->
    Format.fprintf ppf "%s%a[%a] = %a;" pad (pp_expr 12) p expr i expr v
  | Ast.If (c, b1, b2) ->
    Format.fprintf ppf "%sif (%a) {%a\n%s}" pad expr c (pp_block (indent + 2)) b1 pad;
    if b2 <> [] then
      Format.fprintf ppf " else {%a\n%s}" (pp_block (indent + 2)) b2 pad
  | Ast.While (c, b) ->
    Format.fprintf ppf "%swhile (%a) {%a\n%s}" pad expr c (pp_block (indent + 2)) b pad
  | Ast.For (init, c, step, b) ->
    Format.fprintf ppf "%sfor (%a %a; %a) {%a\n%s}" pad (pp_simple) init expr c
      (pp_simple_no_semi) step (pp_block (indent + 2)) b pad
  | Ast.Return None -> Format.fprintf ppf "%sreturn;" pad
  | Ast.Return (Some e) -> Format.fprintf ppf "%sreturn %a;" pad expr e
  | Ast.Break -> Format.fprintf ppf "%sbreak;" pad
  | Ast.Continue -> Format.fprintf ppf "%scontinue;" pad
  | Ast.Expr e -> Format.fprintf ppf "%s%a;" pad expr e

(* for-headers reuse the statement forms without indentation *)
and pp_simple ppf (s : Ast.stmt) =
  match s.Ast.s with
  | Ast.Decl (x, e) -> Format.fprintf ppf "var %s = %a;" x expr e
  | Ast.Assign (x, e) -> Format.fprintf ppf "%s = %a;" x expr e
  | Ast.Store (p, i, v) -> Format.fprintf ppf "%a[%a] = %a;" (pp_expr 12) p expr i expr v
  | Ast.Expr e -> Format.fprintf ppf "%a;" expr e
  | _ -> invalid_arg "Pretty: not a simple statement"

and pp_simple_no_semi ppf (s : Ast.stmt) =
  match s.Ast.s with
  | Ast.Decl (x, e) -> Format.fprintf ppf "var %s = %a" x expr e
  | Ast.Assign (x, e) -> Format.fprintf ppf "%s = %a" x expr e
  | Ast.Store (p, i, v) -> Format.fprintf ppf "%a[%a] = %a" (pp_expr 12) p expr i expr v
  | Ast.Expr e -> expr ppf e
  | _ -> invalid_arg "Pretty: not a simple statement"

and pp_block indent ppf stmts =
  List.iter (fun s -> Format.fprintf ppf "\n%a" (pp_stmt indent) s) stmts

let func ppf (f : Ast.func) =
  Format.fprintf ppf "fn %s(%s) {%a\n}" f.Ast.fname
    (String.concat ", " f.Ast.params)
    (pp_block 2) f.Ast.body

let program_to_string funcs =
  String.concat "\n\n" (List.map (Format.asprintf "%a" func) funcs)

let expr_to_string e = Format.asprintf "%a" expr e
