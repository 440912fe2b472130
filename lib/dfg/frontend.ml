(* Lexer -> recursive-descent parser (precedence climbing) -> elaboration
   into Graph.Builder, with guards accumulated along conditional blocks.
   Every token carries its line/column, so rejections are typed diagnostics
   with a real source span. *)

type pos = { pl : int; pc : int }

type token =
  | Ident of string
  | Number of int
  | Sym of string  (* operators and punctuation *)
  | Kw_input
  | Kw_if
  | Kw_else

type located = { tok : token; at : pos }

exception Fail of Diag.t

let fail_at ?(code = "beh.syntax") at fmt =
  Printf.ksprintf
    (fun s ->
      raise (Fail (Diag.input ~code ~span:(Diag.point ~line:at.pl ~col:at.pc) s)))
    fmt

let fail_eof ?(code = "beh.syntax") fmt =
  Printf.ksprintf (fun s -> raise (Fail (Diag.input ~code s))) fmt

(* --- lexing ------------------------------------------------------------ *)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let lex src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let bol = ref 0 in
  let i = ref 0 in
  let pos_of k = { pl = !line; pc = k - !bol + 1 } in
  let push ~at:k tok = toks := { tok; at = pos_of k } :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' || (c = '/' && !i + 1 < n && src.[!i + 1] = '/') then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do incr j done;
      push ~at:!i (Number (int_of_string (String.sub src !i (!j - !i))));
      i := !j
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident src.[!j] do incr j done;
      let word = String.sub src !i (!j - !i) in
      (match word with
      | "input" -> push ~at:!i Kw_input
      | "if" -> push ~at:!i Kw_if
      | "else" -> push ~at:!i Kw_else
      | _ -> push ~at:!i (Ident word));
      i := !j
    end
    else begin
      let two =
        if !i + 1 < n then String.sub src !i 2 else ""
      in
      match two with
      | "<=" | ">=" | "==" | "!=" | "<<" | ">>" ->
          push ~at:!i (Sym two);
          i := !i + 2
      | _ -> (
          match c with
          | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '~' | '<' | '>'
          | '=' | '(' | ')' | '{' | '}' | ';' | ',' ->
              push ~at:!i (Sym (String.make 1 c));
              incr i
          | _ -> fail_at (pos_of !i) "unexpected character %C" c)
    end
  done;
  List.rev !toks

(* --- parsing ------------------------------------------------------------ *)

type expr =
  | Var of string * pos
  | Const of int * pos
  | Unop of Op.kind * expr * pos
  | Binop of Op.kind * expr * expr * pos

type stmt =
  | Input of string list * pos
  | Assign of string * expr * pos
  | If of expr * stmt list * stmt list * pos

type stream = { mutable rest : located list }

let peek s = match s.rest with [] -> None | t :: _ -> Some t
let advance s = match s.rest with [] -> () | _ :: r -> s.rest <- r

let expect_sym s sym =
  match peek s with
  | Some { tok = Sym x; _ } when x = sym -> advance s
  | Some { at; _ } -> fail_at at "expected %S" sym
  | None -> fail_eof "unexpected end of input, expected %S" sym


(* Binary operator table: (symbol, kind, precedence); all left-assoc. *)
let binops =
  [ ("|", Op.Or, 1); ("^", Op.Xor, 2); ("&", Op.And, 3);
    ("<", Op.Lt, 4); ("<=", Op.Le, 4); (">", Op.Gt, 4); (">=", Op.Ge, 4);
    ("==", Op.Eq, 4); ("!=", Op.Ne, 4);
    ("<<", Op.Shl, 5); (">>", Op.Shr, 5);
    ("+", Op.Add, 6); ("-", Op.Sub, 6);
    ("*", Op.Mul, 7); ("/", Op.Div, 7); ("%", Op.Mod, 7) ]

let rec parse_primary s =
  match peek s with
  | Some { tok = Number v; at } ->
      advance s;
      Const (v, at)
  | Some { tok = Ident name; at } ->
      advance s;
      Var (name, at)
  | Some { tok = Sym "("; _ } ->
      advance s;
      let e = parse_expr s 0 in
      expect_sym s ")";
      e
  | Some { tok = Sym "-"; at } ->
      advance s;
      Unop (Op.Neg, parse_primary s, at)
  | Some { tok = Sym "~"; at } ->
      advance s;
      Unop (Op.Not, parse_primary s, at)
  | Some { at; _ } -> fail_at at "expected an expression"
  | None -> fail_eof "unexpected end of input in expression"

and parse_expr s min_prec =
  let lhs = ref (parse_primary s) in
  let continue_ = ref true in
  while !continue_ do
    match peek s with
    | Some { tok = Sym sym; at } -> (
        match List.find_opt (fun (x, _, _) -> x = sym) binops with
        | Some (_, kind, prec) when prec >= min_prec ->
            advance s;
            let rhs = parse_expr s (prec + 1) in
            lhs := Binop (kind, !lhs, rhs, at)
        | _ -> continue_ := false)
    | _ -> continue_ := false
  done;
  !lhs

let rec parse_stmts s stop_at_brace =
  let out = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match peek s with
    | None -> continue_ := false
    | Some { tok = Sym "}"; _ } when stop_at_brace -> continue_ := false
    | Some { tok = Kw_input; at } ->
        advance s;
        let rec names acc =
          match peek s with
          | Some { tok = Ident n; _ } -> (
              advance s;
              match peek s with
              | Some { tok = Sym ","; _ } ->
                  advance s;
                  names (n :: acc)
              | _ -> List.rev (n :: acc))
          | Some { at; _ } -> fail_at at "expected an input name"
          | None -> fail_eof "unexpected end of input declaration"
        in
        let ns = names [] in
        expect_sym s ";";
        out := Input (ns, at) :: !out
    | Some { tok = Kw_if; at } ->
        advance s;
        expect_sym s "(";
        let cond = parse_expr s 0 in
        expect_sym s ")";
        expect_sym s "{";
        let then_branch = parse_stmts s true in
        expect_sym s "}";
        let else_branch =
          match peek s with
          | Some { tok = Kw_else; _ } ->
              advance s;
              expect_sym s "{";
              let b = parse_stmts s true in
              expect_sym s "}";
              b
          | _ -> []
        in
        out := If (cond, then_branch, else_branch, at) :: !out
    | Some { tok = Ident name; at } -> (
        advance s;
        match peek s with
        | Some { tok = Sym "="; _ } ->
            advance s;
            let e = parse_expr s 0 in
            expect_sym s ";";
            out := Assign (name, e, at) :: !out
        | Some { at; _ } -> fail_at at "expected '=' after %S" name
        | None -> fail_eof "unexpected end after %S" name)
    | Some { at; _ } -> fail_at at "expected a statement"
  done;
  List.rev !out

(* --- elaboration -------------------------------------------------------- *)

type env = {
  builder : Graph.Builder.t;
  mutable defined : string list;  (* inputs + assigned names + temps *)
  mutable consts : int list;
  mutable fresh : int;
}

let define env name at =
  if List.mem name env.defined then
    fail_at ~code:"beh.reassigned" at "name %S assigned twice" name
  else env.defined <- name :: env.defined

let temp env =
  let name = Printf.sprintf "_t%d" env.fresh in
  env.fresh <- env.fresh + 1;
  env.defined <- name :: env.defined;
  name

let const_name v =
  if v >= 0 then Printf.sprintf "c%d" v else Printf.sprintf "cm%d" (-v)

let ensure_const env v =
  if not (List.mem v env.consts) then begin
    env.consts <- v :: env.consts;
    Graph.Builder.add_input env.builder (const_name v);
    (* Constants have an exact value; seed the range analysis with the
       singleton so .beh programs narrow without annotations. *)
    Graph.Builder.declare_range env.builder (const_name v) (v, v);
    env.defined <- const_name v :: env.defined
  end;
  const_name v

(* Lower an expression to a value name; [name_hint] claims the top node. *)
let rec lower env guards ?name_hint e =
  match e with
  | Const (v, _) -> ensure_const env v
  | Var (name, at) ->
      if not (List.mem name env.defined) then
        fail_at ~code:"beh.undefined" at "name %S is not defined here" name
      else if name_hint = None then name
      else begin
        (* x = y; materialise as a move so the assigned name exists. *)
        let out = Option.get name_hint in
        Graph.Builder.add_op ~guards env.builder ~name:out Op.Mov [ name ];
        out
      end
  | Unop (kind, sub, _) ->
      let arg = lower env guards sub in
      let out = match name_hint with Some n -> n | None -> temp env in
      Graph.Builder.add_op ~guards env.builder ~name:out kind [ arg ];
      out
  | Binop (kind, a, b, _) ->
      let va = lower env guards a in
      let vb = lower env guards b in
      let out = match name_hint with Some n -> n | None -> temp env in
      Graph.Builder.add_op ~guards env.builder ~name:out kind [ va; vb ];
      out

let rec elaborate env guards stmts =
  List.iter
    (fun stmt ->
      match stmt with
      | Input (names, at) ->
          if guards <> [] then
            fail_at ~code:"beh.input-in-if" at
              "inputs cannot be declared inside if"
          else
            List.iter
              (fun n ->
                define env n at;
                Graph.Builder.add_input env.builder n)
              names
      | Assign (name, e, at) ->
          define env name at;
          (* [define] first so self-reference is caught as a cycle later;
             remove-then-lower keeps "not defined here" errors precise. *)
          env.defined <- List.filter (fun x -> x <> name) env.defined;
          let _ = lower env guards ~name_hint:name e in
          env.defined <- name :: env.defined
      | If (cond, then_b, else_b, _) ->
          let cond_name = lower env guards cond in
          elaborate env (guards @ [ (cond_name, true) ]) then_b;
          (* Same-named assignments in the two branches must not collide:
             suffix everything the else branch defines, including the
             branch's own references to those names. *)
          let names = assigned_names else_b in
          let rename_else = List.map (rename_stmt names "_else") else_b in
          elaborate env (guards @ [ (cond_name, false) ]) rename_else)
    stmts

and assigned_names stmts =
  List.concat_map
    (function
      | Assign (n, _, _) -> [ n ]
      | If (_, t, e, _) -> assigned_names t @ assigned_names e
      | Input _ -> [])
    stmts

and rename_expr names suffix = function
  | Var (n, at) when List.mem n names -> Var (n ^ suffix, at)
  | (Var _ | Const _) as e -> e
  | Unop (k, e, at) -> Unop (k, rename_expr names suffix e, at)
  | Binop (k, a, b, at) ->
      Binop (k, rename_expr names suffix a, rename_expr names suffix b, at)

and rename_stmt names suffix = function
  | Assign (name, e, at) ->
      Assign
        ( (if List.mem name names then name ^ suffix else name),
          rename_expr names suffix e,
          at )
  | If (c, t, e, at) ->
      If
        ( rename_expr names suffix c,
          List.map (rename_stmt names suffix) t,
          List.map (rename_stmt names suffix) e,
          at )
  | Input _ as s -> s

let compile src =
  match lex src with
  | exception Fail d -> Error d
  | toks -> (
      let s = { rest = toks } in
      match parse_stmts s false with
      | exception Fail d -> Error d
      | stmts -> (
          let env =
            { builder = Graph.Builder.create (); defined = []; consts = [];
              fresh = 0 }
          in
          match elaborate env [] stmts with
          | exception Fail d -> Error d
          | () -> Graph.Builder.build env.builder))

let compile_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> Result.map_error (Diag.with_file path) (compile src)
  | exception Sys_error msg -> Error (Diag.input ~code:"io.read" msg)

let const_env g =
  List.filter_map
    (fun name ->
      let n = String.length name in
      if n >= 2 && name.[0] = 'c' && name.[1] = 'm' then
        Option.map (fun v -> (name, -v)) (int_of_string_opt (String.sub name 2 (n - 2)))
      else if n >= 2 && name.[0] = 'c' then
        Option.map (fun v -> (name, v)) (int_of_string_opt (String.sub name 1 (n - 1)))
      else None)
    (Graph.inputs g)
